(* Test-only oracle for {!Hwsim.Cache}: the inclusive write-back
   hierarchy as it was before it moved onto {!Hwsim.Setassoc} — per-level
   tag and dirty arrays walked with integer divisions — kept verbatim, so
   the shared core can be diffed against it access for access. *)

open Hwsim

type level_stats = Cache.level_stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writebacks : int;
}

(* one cache level: per-set arrays of tags with LRU order; slot 0 = MRU.
   tags store the line address (addr / line_bytes); -1 = invalid. *)
type level = {
  geom : Machine.cache_geometry;
  n_sets : int;
  tags : int array;  (* n_sets * assoc *)
  dirty : bool array;
  stats : level_stats;
}

type t = { levels : level array; mutable dram_reads : int; mutable dram_wb : int }

type outcome = Cache.outcome = { hit_level : int; dram_fill : bool; dram_writeback : bool }

let make_level geom =
  let n_sets = geom.Machine.size_bytes / geom.Machine.line_bytes / geom.Machine.assoc in
  assert (n_sets > 0);
  {
    geom;
    n_sets;
    tags = Array.make (n_sets * geom.Machine.assoc) (-1);
    dirty = Array.make (n_sets * geom.Machine.assoc) false;
    stats = { hits = 0; misses = 0; evictions = 0; writebacks = 0 };
  }

let create geoms =
  assert (geoms <> []);
  let line = (List.hd geoms).Machine.line_bytes in
  List.iter (fun g -> assert (g.Machine.line_bytes = line)) geoms;
  { levels = Array.of_list (List.map make_level geoms); dram_reads = 0; dram_wb = 0 }

let n_levels t = Array.length t.levels

(* set index: XOR-fold the upper line bits into the index, as real LLC
   designs do, so that power-of-two strides do not resonate with a
   power-of-two set count (cf. Intel's complex addressing); inner levels keep plain modulo indexing *)
let set_of lvl line =
  if lvl.n_sets < 512 then line mod lvl.n_sets
  else begin
    let h = line lxor (line / lvl.n_sets) lxor (line / (lvl.n_sets * lvl.n_sets)) in
    ((h mod lvl.n_sets) + lvl.n_sets) mod lvl.n_sets
  end

(* look up a line in a level; on hit, move to MRU and return true.
   [set_dirty] marks the line dirty on hit. *)
let probe lvl line ~set_dirty =
  let assoc = lvl.geom.Machine.assoc in
  let set = set_of lvl line in
  let base = set * assoc in
  let rec find i =
    if i = assoc then -1
    else if lvl.tags.(base + i) = line then i
    else find (i + 1)
  in
  let i = find 0 in
  if i < 0 then false
  else begin
    (* move to front, preserving order of the others *)
    let d = lvl.dirty.(base + i) in
    for k = i downto 1 do
      lvl.tags.(base + k) <- lvl.tags.(base + k - 1);
      lvl.dirty.(base + k) <- lvl.dirty.(base + k - 1)
    done;
    lvl.tags.(base) <- line;
    lvl.dirty.(base) <- (d || set_dirty);
    true
  end

(* insert a line at MRU; returns the victim (tag, dirty) if one was evicted *)
let insert lvl line ~dirty =
  let assoc = lvl.geom.Machine.assoc in
  let set = set_of lvl line in
  let base = set * assoc in
  let victim_tag = lvl.tags.(base + assoc - 1) in
  let victim_dirty = lvl.dirty.(base + assoc - 1) in
  for k = assoc - 1 downto 1 do
    lvl.tags.(base + k) <- lvl.tags.(base + k - 1);
    lvl.dirty.(base + k) <- lvl.dirty.(base + k - 1)
  done;
  lvl.tags.(base) <- line;
  lvl.dirty.(base) <- dirty;
  if victim_tag >= 0 then Some (victim_tag, victim_dirty) else None

(* invalidate a line in a level (inclusion back-invalidation); a dirty
   shallow copy is merged into the return value *)
let invalidate lvl line =
  let assoc = lvl.geom.Machine.assoc in
  let set = set_of lvl line in
  let base = set * assoc in
  let rec find i =
    if i = assoc then false
    else if lvl.tags.(base + i) = line then begin
      let d = lvl.dirty.(base + i) in
      (* compact: shift the rest up *)
      for k = i to assoc - 2 do
        lvl.tags.(base + k) <- lvl.tags.(base + k + 1);
        lvl.dirty.(base + k) <- lvl.dirty.(base + k + 1)
      done;
      lvl.tags.(base + assoc - 1) <- -1;
      lvl.dirty.(base + assoc - 1) <- false;
      d
    end
    else find (i + 1)
  in
  find 0

let access t ~addr ~is_write =
  let line = addr / t.levels.(0).geom.Machine.line_bytes in
  let n = Array.length t.levels in
  (* search; a write hit marks the line dirty at the level that serves it *)
  let rec search i =
    if i = n then n
    else if probe t.levels.(i) line ~set_dirty:is_write then i
    else begin
      t.levels.(i).stats.misses <- t.levels.(i).stats.misses + 1;
      search (i + 1)
    end
  in
  let hit_level = search 0 in
  if hit_level < n then
    t.levels.(hit_level).stats.hits <- t.levels.(hit_level).stats.hits + 1;
  let dram_fill = hit_level = n in
  if dram_fill then t.dram_reads <- t.dram_reads + 1;
  let dram_writeback = ref false in
  (* writeback of a dirty victim evicted from level [i]: dirtiness flows to
     the next level (which holds the line by inclusion) or to DRAM *)
  let writeback i victim =
    t.levels.(i).stats.writebacks <- t.levels.(i).stats.writebacks + 1;
    if i + 1 < n && probe t.levels.(i + 1) victim ~set_dirty:true then ()
    else begin
      t.dram_wb <- t.dram_wb + 1;
      dram_writeback := true
    end
  in
  (* fill every level above the one that served the access, deepest first;
     evictions back-invalidate shallower copies to preserve inclusion *)
  for i = min hit_level n - 1 downto 0 do
    let dirty = is_write && i = 0 in
    match insert t.levels.(i) line ~dirty with
    | None -> ()
    | Some (victim, victim_dirty) ->
      t.levels.(i).stats.evictions <- t.levels.(i).stats.evictions + 1;
      let merged_dirty = ref victim_dirty in
      for j = 0 to i - 1 do
        if invalidate t.levels.(j) victim then merged_dirty := true
      done;
      if !merged_dirty then writeback i victim
  done;
  { hit_level; dram_fill; dram_writeback = !dram_writeback }

let stats t = Array.map (fun l -> l.stats) t.levels

let dram_reads t = t.dram_reads
let dram_writebacks t = t.dram_wb

let reset t =
  Array.iter
    (fun l ->
      Array.fill l.tags 0 (Array.length l.tags) (-1);
      Array.fill l.dirty 0 (Array.length l.dirty) false;
      l.stats.hits <- 0;
      l.stats.misses <- 0;
      l.stats.evictions <- 0;
      l.stats.writebacks <- 0)
    t.levels;
  t.dram_reads <- 0;
  t.dram_wb <- 0

let flush_writebacks t =
  let last = t.levels.(Array.length t.levels - 1) in
  Array.fold_left
    (fun acc d -> if d then acc + 1 else acc)
    0 last.dirty

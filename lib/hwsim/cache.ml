type level_stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writebacks : int;
}

(* one cache level on the shared tag-array core; tags are line
   addresses (addr / line_bytes), -1 marks an unused way *)
type level = {
  geom : Machine.cache_geometry;
  sets : Setassoc.divisor;
  fold : bool;  (* XOR-folded set index (see [set_of]) *)
  core : Setassoc.t;
  stats : level_stats;
}

type t = {
  levels : level array;
  line_div : Setassoc.divisor;
  (* level 0's MRU fast path (see [access_code]): addresses at or above
     [mru_min] (0, or [max_int] when the path is off) index level 0 by
     [addr lsr mru_shift land mru_mask]; the arrays are level 0's own *)
  mru_min : int;
  mru_shift : int;
  mru_mask : int;
  mru_ways : int;
  mru_tags : int array;
  mru_dirty : bool array;
  mru_stats : level_stats;
  mutable dram_reads : int;
  mutable dram_wb : int;
}

type outcome = { hit_level : int; dram_fill : bool; dram_writeback : bool }

let make_level geom =
  let n_sets = geom.Machine.size_bytes / geom.Machine.line_bytes / geom.Machine.assoc in
  assert (n_sets > 0);
  {
    geom;
    sets = Setassoc.divisor n_sets;
    fold = n_sets >= 512;
    core = Setassoc.create ~sets:n_sets ~ways:geom.Machine.assoc ~empty:(-1) ~dirty:true;
    stats = { hits = 0; misses = 0; evictions = 0; writebacks = 0 };
  }

let create geoms =
  assert (geoms <> []);
  let line = (List.hd geoms).Machine.line_bytes in
  List.iter (fun g -> assert (g.Machine.line_bytes = line)) geoms;
  let levels = Array.of_list (List.map make_level geoms) in
  let l1 = levels.(0) and line_div = Setassoc.divisor line in
  (* [addr lsr shift] is the line for power-of-two lines; the path is on
     where [line land mask] is also its level-0 set: power-of-two sets,
     plain modulo indexing *)
  let fast = (not l1.fold) && line_div.Setassoc.shift >= 0 && l1.sets.Setassoc.shift >= 0 in
  {
    levels;
    line_div;
    mru_min = (if fast then 0 else max_int);
    mru_shift = line_div.Setassoc.shift;
    mru_mask = l1.sets.Setassoc.mask;
    mru_ways = l1.core.Setassoc.ways;
    mru_tags = l1.core.Setassoc.tags;
    mru_dirty = l1.core.Setassoc.dirty;
    mru_stats = l1.stats;
    dram_reads = 0;
    dram_wb = 0;
  }

let n_levels t = Array.length t.levels

(* set index: XOR-fold the upper line bits into the index, as real LLC
   designs do, so that power-of-two strides do not resonate with a
   power-of-two set count (cf. Intel's complex addressing); inner levels
   keep plain modulo indexing, whose negative results raise *)
let[@inline] set_of lvl line =
  if lvl.fold then Setassoc.fold_index lvl.sets line else Setassoc.rem lvl.sets line

(* look up a line; on a hit it becomes MRU, dirty if [set_dirty] *)
let probe lvl line ~set_dirty =
  let set = set_of lvl line in
  Setassoc.find_promote lvl.core ~set line
  && begin
    if set_dirty then Setassoc.mark_dirty lvl.core ~set;
    true
  end

let access_slow t ~addr ~is_write =
  let line = Setassoc.div t.line_div addr in
  let levels = t.levels in
  let n = Array.length levels in
  (* search; a write hit marks the line dirty at the level that serves it *)
  let hit_level = ref 0 in
  while !hit_level < n && not (probe levels.(!hit_level) line ~set_dirty:is_write) do
    let s = levels.(!hit_level).stats in
    s.misses <- s.misses + 1;
    incr hit_level
  done;
  let hit_level = !hit_level in
  if hit_level < n then begin
    let s = levels.(hit_level).stats in
    s.hits <- s.hits + 1
  end
  else t.dram_reads <- t.dram_reads + 1;
  let wb = ref 0 in
  (* fill every level above the one that served the access, deepest first;
     evictions back-invalidate shallower copies to preserve inclusion *)
  for i = min hit_level n - 1 downto 0 do
    let lvl = levels.(i) in
    let victim = Setassoc.insert lvl.core ~set:(set_of lvl line) line ~dirty:(is_write && i = 0) in
    if victim >= 0 then begin
      lvl.stats.evictions <- lvl.stats.evictions + 1;
      let dirty = ref (Setassoc.victim_dirty lvl.core) in
      for j = 0 to i - 1 do
        let up = levels.(j) in
        if Setassoc.invalidate up.core ~set:(set_of up victim) victim then dirty := true
      done;
      (* a dirty victim's data flows to the next level, which holds the
         line by inclusion, or to DRAM *)
      if !dirty then begin
        lvl.stats.writebacks <- lvl.stats.writebacks + 1;
        if not (i + 1 < n && probe levels.(i + 1) victim ~set_dirty:true) then begin
          t.dram_wb <- t.dram_wb + 1;
          wb := 1
        end
      end
    end
  done;
  (hit_level lsl 1) lor !wb

(* An access whose line is already the MRU way of its level-0 set is a
   level-0 hit that moves no tag: [probe] would find it at way 0, promote
   nothing and set its dirty bit on a write, and no level needs a fill.
   That is answered here with a load and a compare; every other access,
   negative addresses included, takes [access_slow].  A line is only
   ever held in its own set, and no address at or above 0 maps to the
   empty tag [-1], so a match is that hit. *)
let access_code t ~addr ~is_write =
  if addr >= t.mru_min then begin
    let line = addr lsr t.mru_shift in
    let way0 = (line land t.mru_mask) * t.mru_ways in
    if Array.unsafe_get t.mru_tags way0 = line then begin
      if is_write then Array.unsafe_set t.mru_dirty way0 true;
      t.mru_stats.hits <- t.mru_stats.hits + 1;
      0
    end
    else access_slow t ~addr ~is_write
  end
  else access_slow t ~addr ~is_write

let access t ~addr ~is_write =
  let code = access_code t ~addr ~is_write in
  let hit_level = code lsr 1 in
  { hit_level; dram_fill = hit_level = n_levels t; dram_writeback = code land 1 = 1 }

let stats t = Array.map (fun l -> l.stats) t.levels

let dram_reads t = t.dram_reads
let dram_writebacks t = t.dram_wb

let reset t =
  Array.iter
    (fun l ->
      Setassoc.reset l.core;
      l.stats.hits <- 0;
      l.stats.misses <- 0;
      l.stats.evictions <- 0;
      l.stats.writebacks <- 0)
    t.levels;
  t.dram_reads <- 0;
  t.dram_wb <- 0

let flush_writebacks t = Setassoc.dirty_count t.levels.(Array.length t.levels - 1).core

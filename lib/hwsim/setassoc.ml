(* --- division-free indexing --------------------------------------------

   A non-power-of-two divisor [d] with [2^k <= d] gets [bits = (61 + k) / 2]
   and [magic = 2^bits / d + 1].  For [0 <= x < 2^bits] the product
   [x * magic] stays below [2^61 + 2^bits < max_int], and
   [q = (x * magic) lsr bits] is [x / d] or one more (the error term
   [x * (magic - 2^bits / d) / 2^bits] is below 1), so one compare makes
   it exact.  Negative and out-of-range [x] take the plain division. *)

type divisor = {
  d : int;
  shift : int;  (* log2 d for a power of two, else -1 *)
  mask : int;
  magic : int;
  bits : int;  (* [0, 2^bits) is the reciprocal's exact range *)
}

let divisor d =
  if d <= 0 then invalid_arg "Setassoc.divisor: divisor must be positive";
  let rec log2 k = if d lsr (k + 1) = 0 then k else log2 (k + 1) in
  let k = log2 0 in
  if d land (d - 1) = 0 then
    { d; shift = k; mask = d - 1; magic = 0; bits = 0 }
  else
    let bits = (61 + k) / 2 in
    { d; shift = -1; mask = 0; magic = (1 lsl bits / d) + 1; bits }

(* [x lsr bits = 0] tests [0 <= x < 2^bits] at once; the ±1
   correction is branch-free, [r asr 62] being -1 for a negative [r] and
   0 otherwise *)
let[@inline] div v x =
  if v.shift >= 0 then (if x >= 0 then x lsr v.shift else x / v.d)
  else if x lsr v.bits = 0 then
    let q = (x * v.magic) lsr v.bits in
    q + ((x - (q * v.d)) asr 62)
  else x / v.d

let[@inline] rem v x =
  if v.shift >= 0 then (if x >= 0 then x land v.mask else x mod v.d)
  else if x lsr v.bits = 0 then
    let r = x - ((x * v.magic) lsr v.bits * v.d) in
    r + (v.d land (r asr 62))
  else x mod v.d

let fold_index v x =
  if x >= 0 then begin
    (* floor (floor (x / n) / n) = x / n² for x >= 0; the XOR of three
       non-negative ints is non-negative *)
    let q1 = div v x in
    rem v (x lxor q1 lxor div v q1)
  end
  else begin
    let n = v.d in
    let h = x lxor (x / n) lxor (x / (n * n)) in
    ((h mod n) + n) mod n
  end

(* --- tag arrays ------------------------------------------------------ *)

type t = {
  sets : int;
  ways : int;
  empty : int;
  tags : int array;  (* sets × ways, MRU first within a set *)
  dirty : bool array;  (* parallel to [tags]; empty without dirty bits *)
  mutable vdirty : bool;  (* the last victim's dirty bit *)
}

let create ~sets ~ways ~empty ~dirty =
  if sets <= 0 || ways <= 0 then invalid_arg "Setassoc.create";
  {
    sets;
    ways;
    empty;
    tags = Array.make (sets * ways) empty;
    dirty = (if dirty then Array.make (sets * ways) false else [||]);
    vdirty = false;
  }

let[@inline] base t set =
  if set < 0 || set >= t.sets then invalid_arg "index out of bounds";
  set * t.ways

let[@inline] has_dirty t = Array.length t.dirty > 0

(* move way [w] of the set at [base] to the front, shifting the more
   recent ways down by one *)
let promote t base w =
  let tags = t.tags in
  let line = Array.unsafe_get tags (base + w) in
  for k = base + w downto base + 1 do
    Array.unsafe_set tags k (Array.unsafe_get tags (k - 1))
  done;
  Array.unsafe_set tags base line;
  if has_dirty t then begin
    let dirty = t.dirty in
    let d = Array.unsafe_get dirty (base + w) in
    for k = base + w downto base + 1 do
      Array.unsafe_set dirty k (Array.unsafe_get dirty (k - 1))
    done;
    Array.unsafe_set dirty base d
  end

let[@inline] find t base line =
  let tags = t.tags and stop = base + t.ways in
  let k = ref base in
  while !k < stop && Array.unsafe_get tags !k <> line do
    incr k
  done;
  !k - base

let find_promote t ~set line =
  let base = base t set in
  let w = find t base line in
  if w = t.ways then false
  else begin
    if w > 0 then promote t base w;
    true
  end

let mark_dirty t ~set = t.dirty.(base t set) <- true

let insert t ~set line ~dirty =
  let base = base t set in
  let last = t.ways - 1 in
  let victim = t.tags.(base + last) in
  t.vdirty <- has_dirty t && t.dirty.(base + last);
  t.tags.(base + last) <- line;
  if has_dirty t then t.dirty.(base + last) <- dirty;
  if last > 0 then promote t base last;
  victim

let victim_dirty t = t.vdirty

let touch t ~set line =
  let base = base t set in
  let w = find t base line in
  if w < t.ways then begin
    if w > 0 then promote t base w;
    true
  end
  else begin
    let last = t.ways - 1 in
    t.tags.(base + last) <- line;
    if last > 0 then promote t base last;
    false
  end

let invalidate t ~set line =
  let base = base t set in
  let w = find t base line in
  if w = t.ways then false
  else begin
    let last = base + t.ways - 1 in
    let tags = t.tags in
    for k = base + w to last - 1 do
      tags.(k) <- tags.(k + 1)
    done;
    tags.(last) <- t.empty;
    if has_dirty t then begin
      let dirty = t.dirty in
      let d = dirty.(base + w) in
      for k = base + w to last - 1 do
        dirty.(k) <- dirty.(k + 1)
      done;
      dirty.(last) <- false;
      d
    end
    else false
  end

let dirty_count t =
  Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 t.dirty

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) t.empty;
  Array.fill t.dirty 0 (Array.length t.dirty) false;
  t.vdirty <- false

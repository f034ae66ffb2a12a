(* doubly-linked list over an arena of preallocated nodes; index 0 is a
   sentinel whose [next] is the MRU and [prev] the LRU *)

type t = {
  capacity : int;
  keys : int array;  (* arena: key stored at each node, 1-based *)
  next : int array;
  prev : int array;
  index : (int, int) Hashtbl.t;  (* key -> node *)
  mutable used : int;  (* nodes in use (also next free node - 1) *)
}

let create ~capacity =
  assert (capacity > 0);
  let n = capacity + 1 in
  let t =
    {
      capacity;
      keys = Array.make n min_int;
      next = Array.make n 0;
      prev = Array.make n 0;
      index = Hashtbl.create (min capacity 4096);
      used = 0;
    }
  in
  t.next.(0) <- 0;
  t.prev.(0) <- 0;
  t

let unlink t node =
  let p = t.prev.(node) and n = t.next.(node) in
  t.next.(p) <- n;
  t.prev.(n) <- p

let link_front t node =
  let first = t.next.(0) in
  t.next.(0) <- node;
  t.prev.(node) <- 0;
  t.next.(node) <- first;
  t.prev.(first) <- node

let touch t key =
  match Hashtbl.find_opt t.index key with
  | Some node ->
    unlink t node;
    link_front t node;
    true
  | None ->
    let node =
      if t.used < t.capacity then begin
        t.used <- t.used + 1;
        t.used
      end
      else begin
        (* evict the LRU node *)
        let lru = t.prev.(0) in
        Hashtbl.remove t.index t.keys.(lru);
        unlink t lru;
        lru
      end
    in
    t.keys.(node) <- key;
    Hashtbl.replace t.index key node;
    link_front t node;
    false

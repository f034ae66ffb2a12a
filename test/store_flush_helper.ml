(* Test helper for the store suite: [store_flush_helper DIR N] finds the
   entry keyed [("t", "shared")] in the store at DIR N times, appending
   its counters to the store's log after every hit, as N short-lived
   processes would.  Exits 1 if a lookup misses. *)

let () =
  let dir = Sys.argv.(1) and n = int_of_string Sys.argv.(2) in
  let c = Engine.Rcache.create ~dir () in
  let k = Engine.Rcache.key [ ("t", "shared") ] in
  for _ = 1 to n do
    if Engine.Rcache.find c k = None then exit 1;
    Engine.Rcache.flush_counters ()
  done

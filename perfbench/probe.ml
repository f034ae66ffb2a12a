(* Host-speed probe: a fixed piece of OCaml work that uses no polyufc
   code, so no change to the program moves it.

     probe.exe

   For each line read on stdin it runs the work once (about 1 ms) and
   answers one line: the wall and CPU seconds it took. *)

let work () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 0 to 1499 do
    let k = i * 7919 land 2047 in
    Hashtbl.replace h k (i :: (try Hashtbl.find h k with Not_found -> []));
    acc := !acc + List.length (Hashtbl.find h k)
  done;
  let a = Array.init 2048 (fun i -> float_of_int ((i * 40503) land 4095)) in
  Array.sort compare a;
  !acc + int_of_float a.(1000)

let () =
  let sink = ref 0 in
  try
    while true do
      ignore (input_line stdin);
      let t0 = Unix.gettimeofday () and c0 = Sys.time () in
      sink := !sink + work ();
      let c1 = Sys.time () and t1 = Unix.gettimeofday () in
      Printf.printf "%.9f %.9f %d\n%!" (t1 -. t0) (c1 -. c0) (!sink land 1)
    done
  with End_of_file -> ()

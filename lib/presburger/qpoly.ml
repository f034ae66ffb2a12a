(* Multivariate quasi-polynomials with periodic coefficients.

   Representation: one flat row-major coefficient tensor of size
   (degree+1)^np per residue class of the variables modulo the per-axis
   periods.  Fitting is tensor-product interpolation: sample f on the
   grid [class_anchor + p .* k], then interpolate axis by axis with the
   exact Vandermonde solver of {!Linalg.Fit} (interpolation is linear,
   so the axes commute).  A grid fit alone cannot reject a period that
   is too small — the samples of one class then mix several true
   residue classes and the Vandermonde system still "fits" them — so
   candidates are validated on held-out points beyond the grid. *)

module Q = Linalg.Q
module Ints = Linalg.Ints

type t = {
  np : int;
  degree : int;
  periods : int array;
  tables : Q.t array array;
}

let c_evals = Telemetry.counter "presburger.qpoly_evals"

let np t = t.np
let degree t = t.degree

let n_classes periods = Array.fold_left (fun acc p -> acc * p) 1 periods

let pow_int b e =
  let r = ref 1 in
  for _ = 1 to e do
    r := !r * b
  done;
  !r

let class_index periods residues =
  let idx = ref 0 in
  Array.iteri (fun i p -> idx := (!idx * p) + residues.(i)) periods;
  !idx

let const ~np c =
  {
    np;
    degree = 0;
    periods = Array.make np 1;
    tables = [| [| Q.of_int c |] |];
  }

let eval_q t v =
  if Array.length v <> t.np then invalid_arg "Qpoly.eval: arity mismatch";
  let d1 = t.degree + 1 in
  let residues = Array.mapi (fun i x -> Ints.fmod x t.periods.(i)) v in
  let tbl = t.tables.(class_index t.periods residues) in
  (* Horner along axis 0, recursing into sub-tensors for deeper axes *)
  let rec ev off len axis =
    if axis = t.np then tbl.(off)
    else begin
      let sub = len / d1 in
      let x = Q.of_int v.(axis) in
      let acc = ref (ev (off + (t.degree * sub)) sub (axis + 1)) in
      for k = t.degree - 1 downto 0 do
        acc := Q.add (Q.mul !acc x) (ev (off + (k * sub)) sub (axis + 1))
      done;
      !acc
    end
  in
  ev 0 (Array.length tbl) 0

let eval t v =
  Telemetry.tick c_evals;
  let q = eval_q t v in
  if not (Q.is_integer q) then
    invalid_arg
      (Format.asprintf "Qpoly.eval: non-integer value %a (fit bug)" Q.pp q);
  Q.to_int_exn q

let extent ~degree ~period = (period - 1) + (period * (degree + 3))

(* iterate over all tuples in Π [0 .. dims.(i)-1] *)
let iter_tuples dims f =
  let n = Array.length dims in
  let cur = Array.make n 0 in
  let rec go i = if i = n then f cur
    else
      for k = 0 to dims.(i) - 1 do
        cur.(i) <- k;
        go (i + 1)
      done
  in
  if Array.for_all (fun d -> d > 0) dims then go 0

(* interpolate one axis of a flat tensor in place: each line along
   [axis] holds d+1 values of a univariate polynomial at abscissae
   xs.(k); replace them with its coefficients (low degree first). *)
let interpolate_axis tbl ~np ~degree ~axis ~xs =
  let d1 = degree + 1 in
  let stride = ref 1 in
  for _ = axis + 1 to np - 1 do
    stride := !stride * d1
  done;
  let stride = !stride in
  let len = Array.length tbl in
  let ok = ref true in
  let base = ref 0 in
  while !ok && !base < len do
    if !base / stride mod d1 = 0 then begin
      let pts =
        List.init d1 (fun k -> (xs.(k), tbl.(!base + (k * stride))))
      in
      match Linalg.Fit.exact_polynomial ~degree pts with
      | None -> ok := false
      | Some coeffs ->
          for k = 0 to degree do
            tbl.(!base + (k * stride)) <- coeffs.(k)
          done
    end;
    incr base
  done;
  !ok

let fit ~degree ~periods ~anchor ~f () =
  let np = Array.length periods in
  if Array.length anchor <> np then invalid_arg "Qpoly.fit: arity mismatch";
  if degree < 0 || Array.exists (fun p -> p < 1) periods then
    invalid_arg "Qpoly.fit: bad degree or period";
  let d1 = degree + 1 in
  let classes = n_classes periods in
  let tables = Array.make classes [||] in
  let residues = Array.make np 0 in
  let class_ok = ref true in
  iter_tuples periods (fun r ->
      if !class_ok then begin
        Array.blit r 0 residues 0 np;
        (* smallest point >= anchor congruent to r modulo the periods *)
        let ca =
          Array.mapi
            (fun i a -> a + Ints.fmod (r.(i) - a) periods.(i))
            anchor
        in
        let tbl_len = pow_int d1 np in
        let tbl = Array.make tbl_len Q.zero in
        let pt = Array.make np 0 in
        iter_tuples (Array.make np d1) (fun k ->
            Array.iteri (fun i ki -> pt.(i) <- ca.(i) + (periods.(i) * ki)) k;
            let pos = ref 0 in
            Array.iter (fun ki -> pos := (!pos * d1) + ki) k;
            tbl.(!pos) <- Q.of_int (f pt));
        let axes_ok = ref true in
        for axis = 0 to np - 1 do
          if !axes_ok then begin
            let xs =
              Array.init d1 (fun k ->
                  Q.of_int (ca.(axis) + (periods.(axis) * k)))
            in
            if not (interpolate_axis tbl ~np ~degree ~axis ~xs) then
              axes_ok := false
          end
        done;
        if !axes_ok then tables.(class_index periods r) <- tbl
        else class_ok := false
      end);
  if not !class_ok then None
  else begin
    let cand = { np; degree; periods; tables } in
    (* held-out validation: per-axis extension past the grid, a diagonal
       corner, and two deterministic interior probes per class anchor.
       Points beyond the grid are what detect an under-estimated period. *)
    let check pt =
      match eval_q cand pt with
      | q -> Q.is_integer q && Q.to_int_exn q = f pt
      | exception Ints.Overflow -> false
    in
    let ok = ref true in
    iter_tuples periods (fun r ->
        if !ok then begin
          let ca =
            Array.mapi
              (fun i a -> a + Ints.fmod (r.(i) - a) periods.(i))
              anchor
          in
          let probe ks =
            let pt =
              Array.mapi (fun i ki -> ca.(i) + (periods.(i) * ki)) ks
            in
            if not (check pt) then ok := false
          in
          for axis = 0 to np - 1 do
            if !ok then begin
              let ks = Array.make np 0 in
              ks.(axis) <- degree + 1;
              probe ks;
              if !ok then begin
                ks.(axis) <- degree + 2;
                probe ks
              end
            end
          done;
          if !ok then probe (Array.make np (degree + 1));
          (* deterministic mixed probe: staggered offsets *)
          if !ok && np > 1 then
            probe (Array.init np (fun i -> (i + degree + 1) mod (degree + 3)))
        end);
    if !ok then Some cand else None
  end

let pp fmt t =
  Format.fprintf fmt "@[<hv>qpoly[np=%d deg=%d periods=%s classes=%d]@]" t.np
    t.degree
    (String.concat ","
       (Array.to_list (Array.map string_of_int t.periods)))
    (Array.length t.tables)

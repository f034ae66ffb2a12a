(** The affine input language — PolyUFC's front door.

    The paper compiles C/C++ via Polygeist's [cgeist]; this module plays
    that role for a small C-like language covering exactly the affine
    program class of Sec. II-A.  Example:

    {v
    program gemm(n) {
      arrays { A[n][n] : f64; B[n][n] : f64; C[n][n] : f64; }
      for (i = 0; i < n; i++) {
        for (j = 0; j < n; j++) {
          C[i][j] = 0.0;
          for (k = 0; k < n; k++) {
            C[i][j] = C[i][j] + A[i][k] * B[k][j];
          }
        }
      }
    }
    v}

    Loop bounds accept [max(a, b, …)] on the lower side and [min(…)] on the
    upper side, strides ([i += 8]), and a [parallel for] marker.  Statement
    names are auto-generated ([S0], [S1], …) in textual order.  Element
    types [f64], [f32], [i64], [i32] fix the element size. *)

exception Parse_error of string

val parse : string -> Poly_ir.Ir.t
(** Parse and validate a program.  Raises {!Parse_error} on syntax errors
    and on validation failures (undeclared arrays, shadowed variables,
    non-affine indices…). *)

val to_string : Poly_ir.Ir.t -> string
(** Print a program back to (re-parsable) surface syntax. *)

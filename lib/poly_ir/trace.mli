(** The packed trace of a program: every statement instance in schedule
    order with its memory accesses, and the loop entries and exits around
    them — the enumeration backend of PolyUFC-CM (the counting step the
    paper delegates to barvinok happens over exactly this instance
    stream) and the trace the hardware simulator replays.

    {!scan} writes one event per int: the kind in the low 3 bits, the
    payload above them (decode with [asr 3], so it may be negative):
    - {!ev_read}, {!ev_write}: the access's byte address;
    - {!ev_stmt}: the statement's index in {!tables}[.stmts]; it precedes
      the instance's accesses, which follow {!stmt_info}'s order (the
      loads of the right-hand side left to right, then the target);
    - {!ev_enter}, {!ev_exit}: the loop's index in {!tables}[.loops].

    Loop variables follow the AST order; [parallel] loops are walked
    sequentially (the simulator and the cache model apply the paper's
    thread-sharing heuristic instead of interleaving threads). *)

val chunk_len : int
(** A chunk is handed over once it holds at least [chunk_len] events; it
    can hold up to one statement instance or innermost iteration more. *)

val ev_read : int
val ev_write : int
val ev_stmt : int
val ev_enter : int
val ev_exit : int

type stmt_info = {
  s_name : string;
  s_flops : int;
  s_arrays : string array;  (** per access, in event order *)
  s_bytes : int array;  (** element size per access *)
}

type loop_info = { l_var : string; l_depth : int; l_parallel : bool }

type tables = { stmts : stmt_info array; loops : loop_info array }
(** The static statement and loop tables the event payloads index:
    every [Stmt] and [Loop] item of the program, numbered in pre-order
    (a branch's [then_] before its [else_]). *)

val tables : Ir.t -> tables

type summary = {
  layout : Layout.t;
  instances : int;  (** statement instances *)
  flops : int;  (** arithmetic ops (unitary model) *)
  accesses : int;  (** access events *)
  below_layout : bool;
      (** some access addressed a byte below the layout (a negative
          address: an index below its array's bounds when the array is
          laid out first) *)
}

val scan :
  Ir.t ->
  param_values:(string * int) list ->
  on_chunk:(int array -> int -> unit) ->
  summary
(** Enumerate the program's event stream into one reusable chunk,
    calling [on_chunk buf len] whenever it fills and once at the end for
    a non-empty rest; [buf] is overwritten after [on_chunk] returns.
    Every innermost loop whose body holds only statements runs as a
    strength-reduced generator: each access's address is computed once
    per loop entry and then advanced by a constant per iteration.
    Bulk-reports the counters [interp.accesses] and [interp.chunks] once
    per scan.  Raises [Invalid_argument] on an invalid program, a missing
    parameter value or a non-positive extent. *)

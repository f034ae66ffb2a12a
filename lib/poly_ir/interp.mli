(** Reference interpreter for the loop AST, with callbacks.

    Two uses:
    - {e static scanning} ([run ~compute:false]): every statement instance
      in schedule order with its memory accesses, decoded into {!callbacks}
      from {!Trace.scan}'s chunks — the trace PolyUFC-CM and the hardware
      simulator read directly;
    - {e execution} ([run ~compute:true], the default): additionally
      allocate the arrays and evaluate statement right-hand sides,
      providing reference results.

    Loop variables follow the AST order; [parallel] loops are executed
    sequentially (the simulator and the cache model apply the paper's
    thread-sharing heuristic instead of interleaving threads). *)

type callbacks = {
  on_access :
    stmt:string -> array:string -> addr:int -> bytes:int -> is_write:bool -> unit;
  on_stmt : stmt:string -> flops:int -> unit;
  on_loop_enter : var:string -> depth:int -> parallel:bool -> unit;
  on_loop_exit : var:string -> depth:int -> unit;
}

val null_callbacks : callbacks
val with_access :
  (stmt:string -> array:string -> addr:int -> bytes:int -> is_write:bool -> unit) ->
  callbacks

type result = {
  layout : Layout.t;
  values : (string * float array) list;
      (** flattened array contents; empty when [compute:false] *)
  instances : int;  (** executed statement instances *)
  flops : int;  (** total arithmetic ops (unitary model) *)
  accesses : int;  (** total access events *)
}

val run :
  ?compute:bool ->
  ?init:(string -> int -> float) ->
  Ir.t ->
  param_values:(string * int) list ->
  callbacks ->
  result
(** [init array_name linear_index] provides initial element values
    (default: a deterministic pseudo-random pattern).  With
    [~compute:false] this is {!Trace.scan} with its chunks decoded into
    the callbacks; an access's array and size follow from its position in
    its statement instance, so addresses outside the layout decode too. *)

val array_value : result -> string -> int array -> float
(** Element of a result array by index vector. *)

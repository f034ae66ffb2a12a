type degrade = Off | Interp

type t = {
  deadline : float option; (* absolute Unix.gettimeofday instant *)
  fuel : int Atomic.t option; (* shared across domains; < 0 = overdrawn *)
  policy : degrade;
}

exception Exhausted of string

let c_exhausted = Telemetry.counter "engine.budget_exhausted"

let create ?deadline_s ?fuel ?(degrade = Interp) () =
  {
    deadline = Option.map (fun s -> Unix.gettimeofday () +. s) deadline_s;
    fuel = Option.map Atomic.make fuel;
    policy = degrade;
  }

let of_limits ?deadline_s ?fuel ~degrade () =
  if deadline_s = None && fuel = None then None
  else Some (create ?deadline_s ?fuel ~degrade ())

let degrade t = t.policy

let trip msg =
  Telemetry.tick c_exhausted;
  Telemetry.Event.warn "budget.exhausted"
    ~fields:[ ("why", Telemetry.Json.Str msg) ];
  raise (Exhausted msg)

let check_deadline t =
  match t.deadline with
  | Some d when Unix.gettimeofday () > d -> trip "deadline exceeded"
  | _ -> ()

let spend t n =
  (match t.fuel with
  | Some f ->
    if Atomic.fetch_and_add f (-n) - n < 0 then trip "fuel exhausted"
  | None -> ());
  check_deadline t

let check t =
  (match t.fuel with
  | Some f when Atomic.get f < 0 -> trip "fuel exhausted"
  | _ -> ());
  check_deadline t

let exhausted t =
  (match t.fuel with Some f -> Atomic.get f < 0 | None -> false)
  || match t.deadline with
     | Some d -> Unix.gettimeofday () > d
     | None -> false

let remaining_fuel t = Option.map (fun f -> max 0 (Atomic.get f)) t.fuel

let remaining_s t =
  Option.map (fun d -> Float.max 0. (d -. Unix.gettimeofday ())) t.deadline

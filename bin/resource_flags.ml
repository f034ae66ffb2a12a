(* Shared resource-governance flags for the CLI.

   Every analysis subcommand (analyze / search / run / batch) takes the
   same flag set and resolves it into one Engine.Ctx.t:

     --jobs N         worker domains (0 = one per core)
     --no-cache       do not consult or populate the result cache
     --cache-dir DIR  result-cache directory
     --deadline SEC   wall-clock budget for the whole request
     --fuel N         abstract work-unit budget
     --degrade MODE   off | interp: what to do when the budget trips
     --fault-plan P   (hidden) arm Engine.Faultsim injection sites

   Flag values are validated here (exit 2 on nonsense like a negative
   deadline) so downstream code never sees them.

   SIGINT is wired to the context's cancellation token, so the first ^C
   unwinds the pipeline cooperatively (workers abandon queued jobs, no
   partial cache writes).  The handler then restores the default SIGINT
   disposition: the token is one-shot, so a second ^C force-quits
   instead of being swallowed.

   Governance exceptions (Budget.Exhausted / Cancel.Cancelled) are *not*
   handled here — they unwind to the subcommand's Engine.Guard boundary,
   which owns exit codes and the --json error object. *)

open Cmdliner

type t = {
  jobs : int;
  no_cache : bool;
  cache_dir : string option;
  cache_upstream : string option;
  cache_max_bytes : int option;
  cache_max_entries : int option;
  deadline_s : float option;
  fuel : int option;
  degrade : Engine.Budget.degrade;
  fault_plan : string option;
}

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel parts of the flow; $(b,0) means \
           one per core. Results are identical for every N.")

let no_cache_arg =
  Arg.(
    value
    & flag
    & info [ "no-cache" ]
        ~doc:"Do not consult or populate the persistent result cache.")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Result-cache directory (default $(b,_polyufc_cache), or \
           $(b,POLYUFC_CACHE_DIR)).")

let cache_upstream_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-upstream" ] ~docv:"DIR"
        ~doc:
          "Read-only upstream result store (e.g. a pre-warmed store \
           shipped with a release; default $(b,POLYUFC_CACHE_UPSTREAM)). \
           Hits found there are promoted into the local store; nothing is \
           ever written upstream.")

(* byte sizes with k/M/G suffixes, e.g. --cache-max-bytes 256M *)
let size_conv =
  let parse s =
    match Engine.Rcache.parse_size s with
    | Some n -> Ok n
    | None -> Error (`Msg (Printf.sprintf "invalid size %S (want N[k|M|G])" s))
  in
  Arg.conv (parse, fun ppf n -> Format.fprintf ppf "%d" n)

let cache_max_bytes_arg =
  Arg.(
    value
    & opt (some size_conv) None
    & info [ "cache-max-bytes" ] ~docv:"SIZE"
        ~doc:
          "Garbage-collect the result store down to $(docv) bytes \
           (suffixes $(b,k)/$(b,M)/$(b,G); default \
           $(b,POLYUFC_CACHE_MAX_BYTES), unset = unbounded). Least \
           recently used entries are evicted first.")

let cache_max_entries_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache-max-entries" ] ~docv:"N"
        ~doc:
          "Garbage-collect the result store down to $(docv) entries \
           (default $(b,POLYUFC_CACHE_MAX_ENTRIES), unset = unbounded).")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SEC"
        ~doc:
          "Wall-clock budget in seconds for the whole request. What \
           happens when it expires is set by $(b,--degrade).")

let fuel_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuel" ] ~docv:"N"
        ~doc:
          "Work-unit budget (one unit is roughly one scanned lattice \
           point or one simulated cache access). Unlimited if omitted.")

let degrade_arg =
  let degrade_conv =
    Arg.enum [ ("off", Engine.Budget.Off); ("interp", Engine.Budget.Interp) ]
  in
  Arg.(
    value
    & opt degrade_conv Engine.Budget.Interp
    & info [ "degrade" ] ~docv:"MODE"
        ~doc:
          "On budget exhaustion: $(b,interp) falls back to cheaper \
           estimators and marks the result $(i,degraded); $(b,off) makes \
           exhaustion a hard error (exit 4).")

(* Hidden from the manpage: a chaos-testing hook, same syntax as the
   FAULTSIM environment variable (which it overrides). *)
let fault_plan_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-plan" ] ~docv:"PLAN" ~docs:Manpage.s_none
        ~doc:"Arm fault-injection sites ($(b,site:prob:seed,...)).")

let term =
  let make jobs no_cache cache_dir cache_upstream cache_max_bytes
      cache_max_entries deadline_s fuel degrade fault_plan =
    {
      jobs;
      no_cache;
      cache_dir;
      cache_upstream;
      cache_max_bytes;
      cache_max_entries;
      deadline_s;
      fuel;
      degrade;
      fault_plan;
    }
  in
  Term.(
    const make $ jobs_arg $ no_cache_arg $ cache_dir_arg $ cache_upstream_arg
    $ cache_max_bytes_arg $ cache_max_entries_arg $ deadline_arg $ fuel_arg
    $ degrade_arg $ fault_plan_arg)

let usage_error fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "polyufc: %s@." msg;
      exit Engine.Guard.exit_usage)
    fmt

let install_fault_plan = function
  | None -> ()
  | Some plan -> (
    match Engine.Faultsim.parse_plan plan with
    | Ok p -> Engine.Faultsim.install p
    | Error msg -> usage_error "invalid --fault-plan: %s" msg)

let validate_qos (deadline_s, fuel, _degrade) =
  (match deadline_s with
  | Some d when d <= 0.0 ->
    usage_error "invalid --deadline %g (want a positive number of seconds)" d
  | _ -> ());
  match fuel with
  | Some n when n <= 0 ->
    usage_error "invalid --fuel %d (want a positive work-unit count)" n
  | _ -> ()

let validate t =
  if t.jobs < 0 then
    usage_error "invalid --jobs %d (want N >= 0; 0 means one per core)" t.jobs;
  validate_qos (t.deadline_s, t.fuel, t.degrade);
  (match t.cache_max_entries with
  | Some n when n <= 0 ->
    usage_error "invalid --cache-max-entries %d (want a positive count)" n
  | _ -> ());
  install_fault_plan t.fault_plan

(* The governance subset of the flag set, for frontends that forward a
   resource envelope to a daemon instead of building a local context:
   `polyufc client analyze --deadline 5` ships the deadline as request
   QoS and lets the server clamp it against its own maxima. *)
let qos_term =
  let make deadline_s fuel degrade = (deadline_s, fuel, degrade) in
  Term.(const make $ deadline_arg $ fuel_arg $ degrade_arg)

(* Resolve the flags into a live context and run [f] with it; the pool is
   shut down afterwards (also on exceptions) and SIGINT cancels the
   token. *)
let with_ctx t f =
  validate t;
  let jobs = if t.jobs = 0 then Engine.Pool.default_jobs () else t.jobs in
  let cache =
    if t.no_cache then None
    else
      Some
        (Engine.Rcache.create ?dir:t.cache_dir ?upstream:t.cache_upstream
           ?max_bytes:t.cache_max_bytes ?max_entries:t.cache_max_entries ())
  in
  let budget =
    Engine.Budget.of_limits ?deadline_s:t.deadline_s ?fuel:t.fuel
      ~degrade:t.degrade ()
  in
  let cancel = Engine.Cancel.create () in
  let prev_sigint =
    try
      Some
        (Sys.signal Sys.sigint
           (Sys.Signal_handle
              (fun _ ->
                Engine.Cancel.cancel ~reason:"interrupted (SIGINT)" cancel;
                (* the token is spent: hand ^C back to the default
                   disposition so a second one force-quits *)
                try Sys.set_signal Sys.sigint Sys.Signal_default
                with Invalid_argument _ | Sys_error _ -> ())))
    with Invalid_argument _ | Sys_error _ -> None
  in
  let restore () =
    match prev_sigint with
    | Some h -> ( try Sys.set_signal Sys.sigint h with _ -> ())
    | None -> ()
  in
  Telemetry.set_meta "jobs" (Telemetry.Json.Int jobs);
  Telemetry.Event.info "cli.ctx"
    ~fields:
      [
        ("jobs", Telemetry.Json.Int jobs);
        ("cache", Telemetry.Json.Bool (cache <> None));
        ( "deadline_s",
          match t.deadline_s with
          | Some d -> Telemetry.Json.Float d
          | None -> Telemetry.Json.Null );
        ( "fuel",
          match t.fuel with
          | Some n -> Telemetry.Json.Int n
          | None -> Telemetry.Json.Null );
      ];
  Fun.protect ~finally:restore @@ fun () ->
  Engine.Pool.with_pool ~jobs (fun pool ->
      let ctx = Engine.Ctx.create ~pool ?cache ?budget ~cancel () in
      f ~ctx)

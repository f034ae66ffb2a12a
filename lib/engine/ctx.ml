type t = {
  pool : Pool.t option;
  cache : Rcache.t option;
  budget : Budget.t option;
  cancel : Cancel.t option;
}

let none = { pool = None; cache = None; budget = None; cancel = None }

let create ?pool ?cache ?budget ?cancel () = { pool; cache; budget; cancel }

let pool t = t.pool
let cache t = t.cache
let budget t = t.budget
let cancel t = t.cancel

let check t =
  Option.iter Cancel.check t.cancel;
  Option.iter Budget.check t.budget

let checkpoint t =
  Option.iter Cancel.check t.cancel;
  match t.budget with
  | Some b when Budget.degrade b = Budget.Off -> Budget.check b
  | _ -> ()

let spend t n =
  Option.iter Cancel.check t.cancel;
  Option.iter (fun b -> Budget.spend b n) t.budget

let degrade_allowed t =
  match t.budget with
  | Some b -> Budget.degrade b = Budget.Interp
  | None -> false

let without_pool t = { t with pool = None }

let clamp_deadline ?limit requested =
  match (limit, requested) with
  | None, r -> r
  | Some l, None -> Some l
  | Some l, Some r -> Some (Float.min l r)

let clamp_fuel ?limit requested =
  match (limit, requested) with
  | None, r -> r
  | Some l, None -> Some l
  | Some l, Some r -> Some (min l r)

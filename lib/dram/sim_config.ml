type retry_stage =
  | Halve_dt
  | Raise_steps of int
  | Damped_newton of { max_step_v : float; max_newton_scale : int }

type retry_policy = { stages : retry_stage list }

let no_retry = { stages = [] }

(* escalation order mirrors how a SPICE operator rescues a diverging
   transient by hand: first a finer first step, then a finer step
   everywhere, finally a heavily damped Newton that trades iterations
   for robustness *)
let default_retry =
  {
    stages =
      [ Halve_dt; Raise_steps 4;
        Damped_newton { max_step_v = 0.25; max_newton_scale = 4 } ];
  }

let pp_stage ppf = function
  | Halve_dt -> Format.pp_print_string ppf "halve-dt"
  | Raise_steps n -> Format.fprintf ppf "steps-x%d" n
  | Damped_newton { max_step_v; max_newton_scale } ->
    Format.fprintf ppf "damped-newton(%.3gV,x%d)" max_step_v max_newton_scale

let stage_name s = Format.asprintf "%a" pp_stage s

let validate_policy p =
  List.iter
    (fun stage ->
      match stage with
      | Halve_dt -> ()
      | Raise_steps n ->
        if n < 2 then invalid_arg "Sim_config: Raise_steps factor < 2"
      | Damped_newton { max_step_v; max_newton_scale } ->
        if max_step_v <= 0.0 then
          invalid_arg "Sim_config: Damped_newton max_step_v <= 0";
        if max_newton_scale < 1 then
          invalid_arg "Sim_config: Damped_newton max_newton_scale < 1")
    p.stages

type t = {
  tech : Tech.t;
  sim : Dramstress_engine.Options.t option;
  steps_per_cycle : int;
  jobs : int option;
  lanes : int option;
  retry : retry_policy;
  deadline : float option;
}

let default =
  {
    tech = Tech.default;
    sim = None;
    steps_per_cycle = 400;
    jobs = None;
    lanes = None;
    retry = default_retry;
    deadline = None;
  }

let validate t =
  if t.steps_per_cycle < 1 then invalid_arg "Sim_config: steps_per_cycle < 1";
  validate_policy t.retry;
  match t.deadline with
  | Some d when not (d > 0.0) -> invalid_arg "Sim_config: deadline must be > 0"
  | Some _ | None -> ()

let v ?(tech = Tech.default) ?sim ?(steps_per_cycle = 400) ?jobs ?lanes
    ?(retry = default_retry) ?deadline () =
  let t = { tech; sim; steps_per_cycle; jobs; lanes; retry; deadline } in
  validate t;
  t

let resolve_jobs t = Dramstress_util.Par.resolve_jobs ?jobs:t.jobs ()
let resolve_lanes t = Dramstress_util.Par.resolve_lanes ?lanes:t.lanes ()

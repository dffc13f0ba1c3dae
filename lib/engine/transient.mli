(** Transient analysis over a piecewise-uniform time grid.

    The grid is given as segments [(t_end, dt)]: the solver steps with
    time step [dt] until [t_end], then switches to the next segment. This
    supports microsecond retention pauses next to sub-nanosecond switching
    activity without an adaptive controller. *)

type result = {
  times : float array;
  (** accepted time points, starting at 0.0 *)
  probe_names : string array;
  probe_values : float array array;
  (** [probe_values.(i).(k)] is probe [i] at [times.(k)] *)
  final_v : float array;
  (** node voltages at the last time point, indexed by node id *)
  probe_interps : (string, Dramstress_util.Interp.t) Hashtbl.t;
  (** name -> interpolant table built at result construction; {!probe}
      and {!value_at} are O(1) lookups instead of rebuilding the
      interpolant per query. Treat as read-only. *)
}

exception
  Step_failed of {
    seg_start : float;  (** start of the segment being integrated, s *)
    seg_end : float;    (** end of that segment, s *)
    t : float;          (** time point that failed to converge, s *)
    dt : float;         (** step size of the final (smallest) attempt, s *)
    retries : int;      (** halving retries that were exhausted *)
    iterations : int;   (** Newton iterations spent on the last attempt *)
    worst : float;      (** largest remaining voltage update, V *)
  }
(** Raised when a time point still fails to converge after the built-in
    step-halving retries. Wraps {!Newton.No_convergence} with enough
    context (segment bounds, final step size, retry budget) for
    sweep-level callers to report which operating point diverged. *)

(** [make_interps times probe_names probe_values] builds the interpolant
    table of a {!result} from strictly increasing sample times. Exposed
    for {!Ensemble}, which assembles per-lane results itself. *)
val make_interps :
  float array ->
  string array ->
  float array array ->
  (string, Dramstress_util.Interp.t) Hashtbl.t

(** The accepted-time grid of a segment plan: every step's start and end
    time, computed once up front. {!Ensemble} integrates on the same
    grid, so its lanes accept exactly the time points of {!run}. *)
type grid = {
  segments : (float * float) array;
  (** the [(t_end, dt)] plan after [opts.dt_scale] *)
  seg_start : float array;  (** per segment: its start time, s *)
  step_seg : int array;     (** per step: the index of its segment *)
  t_prev : float array;     (** per step: the time it starts from, s *)
  points : float array;
  (** accepted times: [0.0], then step [k] ends at [points.(k + 1)] *)
}

(** [grid ~who opts segments] validates the plan (the errors are
    prefixed with [who]), applies [opts.dt_scale] and walks it. Exposed
    for {!Ensemble}. *)
val grid : who:string -> Options.t -> (float * float) list -> grid

(** [probe result name] is the sampled waveform of a probe as an
    interpolating curve. Raises [Not_found] for unknown probes. *)
val probe : result -> string -> Dramstress_util.Interp.t

(** [value_at result name t] is the probe value at time [t]. *)
val value_at : result -> string -> float -> float

(** [run compiled ?opts ?deadline_at ~segments ~ics ~probes ()]
    integrates the circuit.

    - [segments]: ordered [(t_end, dt)] list; [t_end] strictly increases
      and [dt > 0].
    - [ics]: initial node voltages by node name; unnamed nodes start at
      0 V and are made consistent by an initial quasi-static solve (a
      backward-Euler step of essentially zero length, which pins
      capacitor voltages at their ICs while solving resistive nodes).
    - [probes]: node names to record at every accepted point.
    - [deadline_at]: absolute wall-clock cutoff [(at, budget_s)] threaded
      into every {!Newton.solve}; past it the run raises
      {!Newton.Timeout} immediately (no halving retries).

    Raises {!Step_failed} if a time point fails to converge after the
    built-in step-halving retries (4 halvings). A step that trips the
    runtime health monitor gets the same halving retries but re-raises
    {!Newton.Numerical_health} (with its original context) when they
    are exhausted. *)
val run :
  Dramstress_circuit.Netlist.compiled ->
  ?opts:Options.t ->
  ?deadline_at:float * float ->
  segments:(float * float) list ->
  ics:(string * float) list ->
  probes:string list ->
  unit ->
  result

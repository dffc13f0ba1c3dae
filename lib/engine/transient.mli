(** Transient analysis over a piecewise-uniform time grid.

    The grid is given as segments [(t_end, dt)]: the solver steps with
    time step [dt] until [t_end], then switches to the next segment. This
    supports microsecond retention pauses next to sub-nanosecond switching
    activity without an adaptive controller.

    There is one integrator, {!run_lanes}. It advances N {e lanes} (one
    circuit topology, one MNA assembly plan, one shared time grid, each
    lane with its own initial conditions and optionally its own value for
    one designated resistor, the defect under sweep) through the grid
    together:

    - control waveforms are evaluated once per time point and shared by
      every lane ({!Mna.eval_controls_into});
    - the sparse-LU symbolic analysis is shared across lanes (the
      structural pattern is a property of the topology, not the values);
    - Newton iterations run as {e masked sweeps}: each sweep performs
      one {!Newton.iterate} for every not-yet-converged lane, and lanes
      that converged early sit out the rest
      ([engine.ensemble.masked_lane_iters] counts those skipped
      iterations).

    {!run} is a run of one lane. A lane's iterates do not depend on its
    batch mates: the same iteration body, the same dt-halving retries on
    step failure (4 halvings) and the same health guards. A lane that
    fails is masked out and reported in its own result slot; the
    surviving lanes are unaffected. Lane state is four plain float rows
    per lane next to one shared workspace, so a 16-lane run costs one
    workspace plus about [16 x 4 x size] floats, not 16 workspaces. *)

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

(** [probe result name] is the sampled waveform of a probe as an
    interpolating curve. Raises [Not_found] for unknown probes. *)
val probe : result -> string -> Dramstress_util.Interp.t

(** [value_at result name t] is the probe value at time [t]. *)
val value_at : result -> string -> float -> float

(** One lane. [ics] are the lane's initial node voltages (same contract
    as [run ~ics]). [override], when given as [(resistor_name, ohms)],
    makes this lane see that resistance for the named resistor; all
    overriding lanes must name the {e same} resistor (one shared
    topology). When any lane overrides, that resistor leaves the static
    template and every lane stamps its own conductance after the
    template copy, the lanes without an override at the netlist value;
    when none does, the resistor stays in the template. *)
type lane = {
  ics : (string * float) list;
  override : (string * float) option;
}

(** [run_lanes compiled ?opts ?deadline_at ~segments ~lanes ~probes ()]
    integrates every lane over the shared grid and returns one result
    slot per lane, in lane order: [Ok result], or [Error e] with the
    lane's failure ({!Step_failed}, {!Newton.No_convergence} from the
    initial quasi-static solve, or {!Newton.Numerical_health}) without
    disturbing the other lanes.

    - [segments]: ordered [(t_end, dt)] list; [t_end] strictly increases
      and [dt > 0].
    - [lane.ics]: initial node voltages by node name; unnamed nodes
      start at 0 V and are made consistent by an initial quasi-static
      solve (a backward-Euler step of essentially zero length, which
      pins capacitor voltages at their ICs while solving resistive
      nodes).
    - [probes]: node names to record at every accepted point.
    - [deadline_at]: absolute wall-clock cutoff [(at, budget_s)] polled
      at every lane iteration; past it the whole run raises
      {!Newton.Timeout} immediately (no halving retries).

    A time point that fails to converge is retried with the step halved
    (4 halvings); a lane whose budget runs out fails with
    {!Step_failed}. A step that trips the runtime health monitor gets
    the same halving retries, and the lane then fails with the
    {!Newton.Numerical_health} error itself.

    Raises [Invalid_argument] for an empty lane array, invalid segments,
    unknown IC/probe nodes, a non-positive override resistance, an
    unknown override resistor, or lanes overriding different
    resistors. *)
val run_lanes :
  Dramstress_circuit.Netlist.compiled ->
  ?opts:Options.t ->
  ?deadline_at:float * float ->
  segments:(float * float) list ->
  lanes:lane array ->
  probes:string list ->
  unit ->
  (result, exn) Stdlib.result array

(** [run compiled ?opts ?deadline_at ~segments ~ics ~probes ()] is
    {!run_lanes} on the single lane [{ ics; override = None }], raising
    that lane's error. *)
val run :
  Dramstress_circuit.Netlist.compiled ->
  ?opts:Options.t ->
  ?deadline_at:float * float ->
  segments:(float * float) list ->
  ics:(string * float) list ->
  probes:string list ->
  unit ->
  result

(** Always-on run totals (independent of telemetry being enabled), the
    reconciliation source for [--metrics] — same contract as
    [Ops.cache_stats] and [Sparse_lu.stats]. *)
type stats = {
  lanes : int;  (** lanes integrated across all runs *)
  batches : int;  (** integrator runs, i.e. {!run_lanes} calls *)
  masked_lane_iters : int;
      (** lane-iterations skipped because the lane had already converged
          while batch mates were still iterating *)
  lane_failures : int;  (** lanes returned as [Error] *)
}

val stats : unit -> stats
val reset_stats : unit -> unit

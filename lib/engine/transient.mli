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
    workspace plus about [16 x 4 x size] floats, not 16 workspaces.

    {2 Snapshots and resumed lanes}

    A run records a {!snapshot} of every live lane at the segment ends
    its caller names: the lane's committed unknowns, node voltages and
    capacitor history there, plus the sparse-LU pivot order in force.
    Those three rows are all the state a lane carries from one grid step
    to the next, so a later run whose grid starts with the same steps
    (the grid is walked from t = 0, so equal leading segments give equal
    leading points) and whose control waveforms agree over them can
    start a lane at the snapshot's step instead of t = 0. The lane still
    takes part in the t = 0 quasi-static solve, which makes the run's
    first pivot-order analysis exactly as a run from t = 0 would; it then
    loads the snapshot's rows and its recorded samples and sits out the
    steps before its start, the way a dead lane does. From there on its
    iterates are the ones the source run computed, bit for bit, as long
    as the LU factors under the same pivot order: a lane whose run holds
    another order at t = 0 runs from t = 0 instead, and one whose batch
    mates moved the order before its start fails with
    {!Resume_refused}. *)

(** A lane's integrator state at one grid point. Treat as read-only. *)
type snapshot = {
  step : int;  (** the grid point: steps integrated before it *)
  t : float;  (** its time, s *)
  x : float array;  (** committed unknowns *)
  prev_v : float array;  (** node voltages, indexed by node id *)
  cap_hist : float array;  (** capacitor current history *)
  pivots : int array option;
      (** the sparse-LU pivot order in force ({!Mna.pivot_order}) *)
}

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
  snapshots : snapshot option array;
  (** one slot per [snapshot_at] entry of {!run_lanes}, in its order:
      the lane's state at that segment end, [None] for an end at or
      before the step a resumed lane started at *)
  start_step : int;
  (** the grid step the lane's integration began at: 0, or the step of
      the snapshot it resumed from *)
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

exception Resume_refused of { step : int }
(** A resumed lane's error slot when, at its start [step], the run
    factors under another pivot order than its snapshot was taken under
    (only batch mates can move it there). Run the lane again without
    the snapshot. *)

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
    when none does, the resistor stays in the template. The stamping
    mode is part of the arithmetic, so a snapshot resumes bit for bit
    only in a run of the mode it was taken in.

    [resume], when given as [(snapshot, samples)], starts the lane at
    the snapshot's step (see above); [samples] holds the lane's probe
    samples of grid points [0 .. snapshot.step], one row per probe in
    [probes] order — the source run's [probe_values]. *)
type lane = {
  ics : (string * float) list;
  override : (string * float) option;
  resume : (snapshot * float array array) option;
}

(** [run_lanes compiled ?opts ?deadline_at ?snapshot_at ~segments ~lanes
    ~probes ()] integrates every lane over the shared grid and returns
    one result slot per lane, in lane order: [Ok result], or [Error e]
    with the lane's failure ({!Step_failed}, {!Newton.No_convergence}
    from the initial quasi-static solve, {!Newton.Numerical_health} or
    {!Resume_refused}) without disturbing the other lanes.

    - [segments]: ordered [(t_end, dt)] list; [t_end] strictly increases
      and [dt > 0].
    - [lane.ics]: initial node voltages by node name; unnamed nodes
      start at 0 V and are made consistent by an initial quasi-static
      solve (a backward-Euler step of essentially zero length, which
      pins capacitor voltages at their ICs while solving resistive
      nodes).
    - [probes]: node names to record at every accepted point.
    - [snapshot_at] (default none): indices into [segments] at whose
      ends every live lane records a {!snapshot}.
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
    unknown override resistor, lanes overriding different resistors, a
    [snapshot_at] index outside [segments], or a resume whose snapshot
    does not fit the run (its step and time are not a point of this
    grid, its rows do not fit the circuit, or its samples do not reach
    its step). *)
val run_lanes :
  Dramstress_circuit.Netlist.compiled ->
  ?opts:Options.t ->
  ?deadline_at:float * float ->
  ?snapshot_at:int array ->
  segments:(float * float) list ->
  lanes:lane array ->
  probes:string list ->
  unit ->
  (result, exn) Stdlib.result array

(** [run compiled ?opts ?deadline_at ~segments ~ics ~probes ()] is
    {!run_lanes} on the single lane [{ ics; override = None; resume =
    None }], raising that lane's error. *)
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
    [Ops.Cache.stats] and [Sparse_lu.stats]. *)
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

(** Damped Newton–Raphson solve of one (possibly nonlinear) MNA system. *)

exception No_convergence of { t : float; iterations : int; worst : float }
(** Raised when the iteration cap is hit; [worst] is the largest remaining
    voltage update. *)

exception Numerical_health of { t : float; iterations : int; what : string }
(** Raised by the runtime health monitor when the iteration produces a
    numerically sick state: a NaN/Inf in the unknown vector (counted in
    [engine.health.nan_detected]) or a singular/rank-deficient system
    matrix (counted in [engine.health.singular_lu]). [what] is a short
    human-readable description. Treated as recoverable by the
    {!Dramstress_dram.Ops} retry ladder, exactly like
    {!No_convergence}. *)

(** [singular_at_start e] holds for a {!Numerical_health} raised by a
    singular system on the first iteration at [t = 0]: the initial
    quasi-static solve of a transient run could not factor its very
    first matrix. That matrix depends only on the netlist and the
    initial conditions, so a smaller step, more steps or a damped Newton
    meet it unchanged; the {!Dramstress_dram.Ops} retry ladder treats
    such a failure as deterministic and does not retry it. *)
val singular_at_start : exn -> bool

exception Timeout of { t : float; budget_s : float }
(** Raised by the cooperative deadline check when the wall-clock budget
    ([Sim_config.deadline]) passed down as [deadline_at] is exceeded.
    Deliberately NOT recoverable: retrying a point that already burned
    its budget only burns more, so it surfaces directly as a [Failed]
    sweep outcome. *)

(** [solve sys ?ws ?deadline_at ~opts ~t_now ~reactive ~x0 ()] iterates
    assemble/solve from initial guess [x0] until every node-voltage
    update is below [abstol + reltol * |v|]. Node-voltage updates are
    clamped to [opts.max_step_v] per iteration. Returns the converged
    unknown vector (freshly allocated; independent of [x0] and [ws]).

    With [opts.health_guards] (the default) the state vector is checked
    for NaN/Inf after every update and a singular LU factorization is
    converted into {!Numerical_health} — a few flat array scans per
    iteration, negligible against the O(n^3) factorization.

    [deadline_at], when given as [(at, budget_s)], is an absolute
    [Unix.gettimeofday]-clock instant polled once per iteration; past
    it the solve raises [Timeout { t; budget_s }]. The poll costs one
    [gettimeofday] per iteration and nothing when [None].

    [ws] supplies reusable assembly/factorization buffers
    ({!Mna.make_workspace}); when omitted a workspace is allocated for
    this call. Callers solving many systems of the same layout (time
    stepping, sweeps, homotopy) should create one workspace and pass it
    to every call — the steady-state iteration then performs no matrix
    allocation at all. With [opts.naive_assembly] set, the reference
    from-scratch assembly and allocating LU are used instead, and of
    [ws] only its resistor override counts. *)
val solve :
  Mna.t ->
  ?ws:Mna.workspace ->
  ?deadline_at:float * float ->
  opts:Options.t ->
  t_now:float ->
  reactive:Mna.reactive ->
  x0:float array ->
  unit ->
  float array

(** {2 The iteration}

    Exposed for {!Transient.run_lanes}, which interleaves the iterations
    of many lanes and therefore cannot call {!solve}, but runs this same
    body, so a lane is step-for-step identical to a solve. Not a stable
    API for other callers. *)

(** [iterate sys ws ~opts ~deadline_at ~t_now ~reactive ~diverge ~iter x]
    performs Newton iteration number [iter] on [x] in place: the
    deadline poll, the assembly ({!Mna.assemble} with [ws]'s resistor
    override under [opts.naive_assembly], else {!Mna.assemble_into_pre}
    from the controls last evaluated into [ws]), the LU solve (a
    singular pivot becomes {!Numerical_health}), the clamped update, the
    [Inject_nan_state] chaos site, the finiteness guard and the
    convergence test. Returns [true] once [x] has converged, feeding the
    solve telemetry, and [false] when another iteration is due; raises
    {!No_convergence} at [opts.max_newton] iterations, and always while
    [diverge] (the forced-divergence chaos verdict) holds. Allocates
    nothing on the incremental path. *)
val iterate :
  Mna.t ->
  Mna.workspace ->
  opts:Options.t ->
  deadline_at:(float * float) option ->
  t_now:float ->
  reactive:Mna.reactive ->
  diverge:bool ->
  iter:int ->
  float array ->
  bool

(** [chaos_diverge ()] queries the [Force_newton_diverge] chaos site —
    [true] forces this solve to run to its iteration cap. *)
val chaos_diverge : unit -> bool

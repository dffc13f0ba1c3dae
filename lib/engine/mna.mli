(** Modified nodal analysis: system layout and stamping.

    Unknown vector layout for a circuit with [n] nodes (ground excluded)
    and [m] voltage sources:
    {v x = [ v_1 .. v_(n-1) ; i_vsrc_0 .. i_vsrc_(m-1) ] v}

    One assembly produces the linearized system [G x_new = b] around a
    Newton iterate, with companion models for capacitors (BE or
    trapezoidal) and linearized MOSFETs. *)

type t

(** [make compiled] precomputes the layout. *)
val make : Dramstress_circuit.Netlist.compiled -> t

(** [size sys] is the number of unknowns. *)
val size : t -> int

(** [n_nodes sys] is the node count including ground. *)
val n_nodes : t -> int

(** [node_voltage sys x node] reads a node voltage from an unknown vector
    (0.0 for ground). *)
val node_voltage : t -> float array -> Dramstress_circuit.Device.node -> float

(** [voltages sys x] expands the unknown vector to a per-node voltage
    array indexed by node id (entry 0 is ground = 0.0). *)
val voltages : t -> float array -> float array

(** [pack sys node_voltages] builds an unknown vector from per-node
    voltages (branch currents zeroed). *)
val pack : t -> float array -> float array

(** [branch_current sys x name] reads a voltage source's branch current
    from an unknown vector (positive out of the + terminal through the
    external circuit). Raises [Not_found] for unknown sources. *)
val branch_current : t -> float array -> string -> float

(** Dynamic (reactive) inputs to one assembly. [prev_v] is the per-node
    voltage array at the previous accepted time point; [prev_cap_current]
    stores per-capacitor branch current for the trapezoidal rule (indexed
    by capacitor order of appearance); [dt <= 0.0] means "no reactive
    stamps" (pure DC). *)
type reactive = {
  dt : float;
  prev_v : float array;
  prev_cap_current : float array;
}

(** [dc_reactive sys] is a [reactive] that disables capacitor stamps. *)
val dc_reactive : t -> reactive

(** [init_reactive sys ~prev_v] builds a reactive record for transient
    stepping starting from the given node voltages. *)
val init_reactive : t -> prev_v:float array -> reactive

(** [n_capacitors sys] — size of [prev_cap_current]. *)
val n_capacitors : t -> int

(** [resistor_index sys name] is the plan index of the named resistor,
    for {!set_resistor_override} — the hook ensemble sweeps use to vary
    one resistance (the defect) across lanes of a shared topology. *)
val resistor_index : t -> string -> int option

(** [resistor_g sys index] is the base conductance of plan [index]. *)
val resistor_g : t -> int -> float

(** [structural_pattern sys] is the [size x size] boolean nonzero
    pattern of every system any assembly of [sys] can produce, derived
    from the stamp plans (never from numeric values — a MOSFET [gm] or
    switch conductance being zero {e now} says nothing about the next
    iterate). Input for {!Dramstress_util.Sparse_lu.layout}, which
    [make] numbers once into the value slots every workspace of [sys]
    stamps into. *)
val structural_pattern : t -> bool array array

(** Reusable per-solve buffers for the incremental assembly path: the
    system's structural values (one float per
    {!Dramstress_util.Sparse_lu.slot}, no dense matrix) and its RHS, the
    cached static-linear template in the same slots (gmin, resistors,
    voltage-source topology, capacitor conductances for the current
    [(dt, gmin, integrator)]), the sparse-LU handle with its
    substitution scratch, and the MOSFET temperature terms for the
    current [opts.temp]. One workspace serves any number of sequential
    solves on the same system; it must not be shared between domains. *)
type workspace

(** [make_workspace sys] allocates buffers sized for [sys]. *)
val make_workspace : t -> workspace

(** [set_resistor_override ws ~index ~g] makes every subsequent assembly
    stamp conductance [g] for resistor plan [index] instead of its
    netlist value: the resistor is dropped from the static template
    (rebuilt on the next assembly) and [g] stamped fresh after each
    template copy, so the lane conductance is exact — no cancellation
    against the base value. This is how ensemble sweeps give each lane
    its own defect resistance over one shared topology. *)
val set_resistor_override : workspace -> index:int -> g:float -> unit

(** [clear_resistor_override ws] restores the netlist resistance. *)
val clear_resistor_override : workspace -> unit

(** [assemble ?ws sys ~opts ~t_now ~x ~reactive] stamps the full
    linearized system at [t_now] around iterate [x] and returns freshly
    allocated dense [(g, b)]. This is the reference from-scratch path,
    selected by [opts.naive_assembly]. It stamps device by device in
    netlist order, so it sums each entry in a different order from
    {!assemble_into_pre} (template first, then the dynamic stamps): the
    two agree up to summation order — the last bits of the diagonal
    entries differ at most column points (relative 1e-16 to 1e-15) —
    not bit for bit. The checked-in golden
    traces, not this path, are the engine's bit oracle. Of [ws] only the
    resistor override ({!set_resistor_override}) is used: that resistor
    is stamped with the override conductance instead of its netlist
    value. *)
val assemble :
  ?ws:workspace ->
  t ->
  opts:Options.t ->
  t_now:float ->
  x:float array ->
  reactive:reactive ->
  Dramstress_util.Linalg.matrix * float array

(** [eval_controls_into sys ws ~t_now] evaluates every control waveform
    (switch controls, source values) at [t_now] into workspace buffers
    consumed by {!assemble_into_pre}. The controls depend on the time
    point only, so a Newton solve evaluates them once for all its
    iterations, and ensemble lanes sharing a time grid once for all
    lanes. *)
val eval_controls_into : t -> workspace -> t_now:float -> unit

(** [assemble_into_pre sys ws ~opts ~x ~reactive] stamps the system from
    the control values left by the last {!eval_controls_into}: template
    copy (rebuilt only when [(dt, gmin, integrator, override)] changed),
    then dynamic stamps — switch states, source values, capacitor
    history, MOSFET linearization around [x] from per-temperature
    {!Dramstress_circuit.Mosfet.terms} cached in the workspace (rebuilt
    only when [opts.temp] changes). Every stamp adds into the value
    slots its device's slot plan names, and each entry receives its
    additions in the same order whatever the slot layout, so the
    waveforms match the golden traces bit for bit. It agrees with
    {!assemble} up to summation order, and once the caches are built it
    allocates nothing. *)
val assemble_into_pre :
  t ->
  workspace ->
  opts:Options.t ->
  x:float array ->
  reactive:reactive ->
  unit

(** [solve_in_place sys ws] factors the assembled values with the
    sparsity-aware factorization ({!Dramstress_util.Sparse_lu}), reusing
    the workspace's symbolic analysis, and overwrites the assembled RHS
    with the solution ({!solution}). A first or stale-pivot analysis
    densifies the workspace's own values. Raises
    [Dramstress_util.Linalg.Singular] on a rank-deficient (or
    non-finite) system. *)
val solve_in_place : t -> workspace -> unit

(** [pivot_order ws] is the sparse LU's pivot order in force
    ({!Dramstress_util.Sparse_lu.pivot_order}); [None] before the first
    solve. *)
val pivot_order : workspace -> int array option

(** [solution ws] is the workspace RHS buffer, holding the solution
    after {!solve_in_place}. The array is reused by the next
    {!assemble_into_pre}; copy anything that must survive. *)
val solution : workspace -> float array

(** [cap_currents_into sys ~opts ~x ~reactive ~out] writes each
    capacitor's branch current at the just-solved point [x] into [out]
    (length >= n_capacitors), which advances the trapezoidal rule. [out]
    may alias [reactive.prev_cap_current]: each capacitor reads only its
    own slot before overwriting it. With [reactive.dt <= 0] the slots are
    zeroed. *)
val cap_currents_into :
  t ->
  opts:Options.t ->
  x:float array ->
  reactive:reactive ->
  out:float array ->
  unit

(** [record_factor_solve ()] bumps the [engine.mna.lu_factors] /
    [engine.mna.lu_solves] telemetry counters — called by solver paths
    that factor outside {!solve_in_place} (the naive reference path). *)
val record_factor_solve : unit -> unit

module C = Dramstress_circuit
module L = Dramstress_util.Linalg
module Sp = Dramstress_util.Sparse_lu
module Tel = Dramstress_util.Telemetry

let c_template_rebuilds = Tel.Counter.make "engine.mna.template_rebuilds"
let c_lu_factors = Tel.Counter.make "engine.mna.lu_factors"
let c_lu_solves = Tel.Counter.make "engine.mna.lu_solves"

(* one factorization + one substitution happened (the naive Newton path
   calls this; the incremental path counts inside [solve_in_place]) *)
let record_factor_solve () =
  Tel.Counter.incr c_lu_factors;
  Tel.Counter.incr c_lu_solves

(* Pre-resolved stamp plans: every name lookup and node-to-row mapping is
   done once at [make] time, so the per-iteration hot path only walks
   flat arrays of integers and floats. Devices split into a
   *static-linear* part (resistors, voltage-source topology, capacitor
   conductances — fixed for a given time step and integrator) that is
   pre-stamped into a cached template, and a *dynamic* part (switches,
   source values, capacitor history, MOSFET linearizations) restamped on
   top of a flat copy of the template. The workspace holds no dense
   matrix: template and system are arrays of the structural values, and
   each device's slot plan names the value slots its stamps add into. *)

type res_plan = { r_a : int; r_b : int; g_res : float }

type switch_plan = {
  s_a : int;
  s_b : int;
  ctrl : C.Waveform.t;
  g_on : float;
  g_off : float;
  threshold : float;
}

type cap_plan = { c_a : int; c_b : int; slot : int; cap : float }
type vsrc_plan = { v_pos : int; v_neg : int; row : int; v_wave : C.Waveform.t }
type isrc_plan = { i_pos : int; i_neg : int; i_wave : C.Waveform.t }

type mos_plan = {
  m_d : int;
  m_g : int;
  m_s : int;
  model : C.Mosfet.model;
  mult : float;
}

type t = {
  compiled : C.Netlist.compiled;
  n_nodes : int;
  n_vsources : int;
  size : int;
  vsrc_branch : (string, int) Hashtbl.t;  (* vsource name -> branch index *)
  cap_index : (string, int) Hashtbl.t;    (* capacitor name -> slot *)
  res_index : (string, int) Hashtbl.t;    (* resistor name -> plan index *)
  n_caps : int;
  resistors : res_plan array;
  switches : switch_plan array;
  caps : cap_plan array;
  vsrcs : vsrc_plan array;
  isrcs : isrc_plan array;
  mosfets : mos_plan array;
  layout : Sp.layout;
  (* slot plans: the value slots ({!Sp.slot}) each stamp adds
     into, [-1] where a terminal is ground. A conductance between a and
     b takes four, in [stamp_g] order (aa, bb, ab, ba); a MOSFET takes
     eight, its gds conductance (d, s) then its gm VCCS entries (dg, ds,
     sg, ss); a voltage source takes (pos, row), (row, pos), (neg, row),
     (row, neg) *)
  gmin_slots : int array;
  res_slots : int array;
  sw_slots : int array;
  cap_slots : int array;
  vs_slots : int array;
  mos_slots : int array;
}

(* The structural nonzero pattern of every system any assembly of these
   plans can produce — derived from the stamp PLANS, never from numeric
   values: a MOSFET's gm is zero below threshold and nonzero above, a
   switch conductance swings between g_on and g_off, but the stamped
   POSITIONS are fixed. This is what {!Dramstress_util.Sparse_lu}
   numbers and analyses once per topology. *)
let pattern_of ~size ~n_nodes ~resistors ~switches ~caps ~vsrcs ~mosfets =
  let pat = Array.make_matrix size size false in
  let mark r c = if r > 0 && c > 0 then pat.(r - 1).(c - 1) <- true in
  let mark_g a b =
    mark a a;
    mark b b;
    mark a b;
    mark b a
  in
  for node = 1 to n_nodes - 1 do
    pat.(node - 1).(node - 1) <- true (* gmin *)
  done;
  Array.iter (fun p -> mark_g p.r_a p.r_b) resistors;
  Array.iter (fun p -> mark_g p.s_a p.s_b) switches;
  Array.iter (fun p -> mark_g p.c_a p.c_b) caps;
  Array.iter
    (fun p ->
      (* branch rows/cols land past the node block; mark them directly *)
      if p.v_pos > 0 then begin
        pat.(p.v_pos - 1).(p.row) <- true;
        pat.(p.row).(p.v_pos - 1) <- true
      end;
      if p.v_neg > 0 then begin
        pat.(p.v_neg - 1).(p.row) <- true;
        pat.(p.row).(p.v_neg - 1) <- true
      end)
    vsrcs;
  Array.iter
    (fun p ->
      (* gds between d and s, plus the gm VCCS controlled by (g, s) *)
      mark_g p.m_d p.m_s;
      mark p.m_d p.m_g;
      mark p.m_s p.m_g)
    mosfets;
  pat

let make (compiled : C.Netlist.compiled) =
  let n_nodes = compiled.n_nodes in
  let vsrc_branch = Hashtbl.create 8 in
  let cap_index = Hashtbl.create 8 in
  let nv = ref 0 and nc = ref 0 in
  Array.iter
    (fun d ->
      match d with
      | C.Device.Vsource { name; _ } ->
        Hashtbl.add vsrc_branch name !nv;
        incr nv
      | C.Device.Capacitor { name; _ } ->
        Hashtbl.add cap_index name !nc;
        incr nc
      | C.Device.Resistor _ | C.Device.Isource _ | C.Device.Switch _
      | C.Device.Mosfet _ ->
        ())
    compiled.devices;
  let resistors = ref [] and switches = ref [] and caps = ref [] in
  let vsrcs = ref [] and isrcs = ref [] and mosfets = ref [] in
  let res_index = Hashtbl.create 8 in
  let nr = ref 0 in
  Array.iter
    (fun d ->
      match d with
      | C.Device.Resistor { name; a; b; r; _ } ->
        Hashtbl.add res_index name !nr;
        incr nr;
        resistors := { r_a = a; r_b = b; g_res = 1.0 /. r } :: !resistors
      | C.Device.Switch { a; b; ctrl; g_on; g_off; threshold; _ } ->
        switches := { s_a = a; s_b = b; ctrl; g_on; g_off; threshold } :: !switches
      | C.Device.Capacitor { name; a; b; c; _ } ->
        caps :=
          { c_a = a; c_b = b; slot = Hashtbl.find cap_index name; cap = c }
          :: !caps
      | C.Device.Vsource { name; pos; neg; wave } ->
        vsrcs :=
          { v_pos = pos; v_neg = neg;
            row = n_nodes - 1 + Hashtbl.find vsrc_branch name; v_wave = wave }
          :: !vsrcs
      | C.Device.Isource { pos; neg; wave; _ } ->
        isrcs := { i_pos = pos; i_neg = neg; i_wave = wave } :: !isrcs
      | C.Device.Mosfet { d; g; s; model; m; _ } ->
        mosfets := { m_d = d; m_g = g; m_s = s; model; mult = m } :: !mosfets)
    compiled.devices;
  let arr l = Array.of_list (List.rev !l) in
  let resistors = arr resistors and switches = arr switches in
  let caps = arr caps and vsrcs = arr vsrcs and mosfets = arr mosfets in
  let size = n_nodes - 1 + !nv in
  let layout =
    Sp.layout ~n:size
      ~pattern:
        (pattern_of ~size ~n_nodes ~resistors ~switches ~caps ~vsrcs ~mosfets)
  in
  (* slot of the entry at (row, col) of the unknown vector, with node
     terminals mapped to rows as [node - 1] and ground dropped *)
  let node_slot a b =
    if a > 0 && b > 0 then Sp.slot layout (a - 1) (b - 1) else -1
  in
  let g_slots k a b =
    match k with
    | 0 -> node_slot a a
    | 1 -> node_slot b b
    | 2 -> node_slot a b
    | _ -> node_slot b a
  in
  let plan per devices slots =
    Array.init (per * Array.length devices) (fun k ->
        slots (k mod per) devices.(k / per))
  in
  {
    compiled;
    n_nodes;
    n_vsources = !nv;
    size;
    vsrc_branch;
    cap_index;
    res_index;
    n_caps = !nc;
    resistors;
    switches;
    caps;
    vsrcs;
    isrcs = arr isrcs;
    mosfets;
    layout;
    gmin_slots = Array.init (n_nodes - 1) (fun i -> node_slot (i + 1) (i + 1));
    res_slots = plan 4 resistors (fun k p -> g_slots k p.r_a p.r_b);
    sw_slots = plan 4 switches (fun k p -> g_slots k p.s_a p.s_b);
    cap_slots = plan 4 caps (fun k p -> g_slots k p.c_a p.c_b);
    vs_slots =
      plan 4 vsrcs (fun k p ->
          let node = if k < 2 then p.v_pos else p.v_neg in
          if node = 0 then -1
          else if k land 1 = 0 then Sp.slot layout (node - 1) p.row
          else Sp.slot layout p.row (node - 1));
    mos_slots =
      plan 8 mosfets (fun k p ->
          if k < 4 then g_slots k p.m_d p.m_s
          else
            match k with
            | 4 -> node_slot p.m_d p.m_g
            | 5 -> node_slot p.m_d p.m_s
            | 6 -> node_slot p.m_s p.m_g
            | _ -> node_slot p.m_s p.m_s);
  }

let size sys = sys.size
let n_nodes sys = sys.n_nodes
let n_capacitors sys = sys.n_caps
let resistor_index sys name = Hashtbl.find_opt sys.res_index name
let resistor_g sys index = sys.resistors.(index).g_res

let structural_pattern sys =
  pattern_of ~size:sys.size ~n_nodes:sys.n_nodes ~resistors:sys.resistors
    ~switches:sys.switches ~caps:sys.caps ~vsrcs:sys.vsrcs
    ~mosfets:sys.mosfets

let[@inline] node_voltage _sys x node = if node = 0 then 0.0 else x.(node - 1)

let voltages sys x =
  Array.init sys.n_nodes (fun n -> if n = 0 then 0.0 else x.(n - 1))

let pack sys node_voltages =
  Array.init sys.size (fun i ->
      if i < sys.n_nodes - 1 then node_voltages.(i + 1) else 0.0)

let branch_current sys x name =
  x.(sys.n_nodes - 1 + Hashtbl.find sys.vsrc_branch name)

type reactive = {
  dt : float;
  prev_v : float array;
  prev_cap_current : float array;
}

let dc_reactive sys =
  { dt = 0.0; prev_v = Array.make sys.n_nodes 0.0;
    prev_cap_current = Array.make sys.n_caps 0.0 }

let init_reactive sys ~prev_v =
  assert (Array.length prev_v = sys.n_nodes);
  { dt = 0.0; prev_v; prev_cap_current = Array.make sys.n_caps 0.0 }

(* Stamping helpers. Node indices map to matrix rows as [node - 1];
   ground (0) contributions are dropped. All [@inline]: a float argument
   to an out-of-line call is boxed, and these run for every device on
   every Newton iteration. *)

let[@inline] stamp_g g mat a b =
  let ia = a - 1 and ib = b - 1 in
  if ia >= 0 then mat.(ia).(ia) <- mat.(ia).(ia) +. g;
  if ib >= 0 then mat.(ib).(ib) <- mat.(ib).(ib) +. g;
  if ia >= 0 && ib >= 0 then begin
    mat.(ia).(ib) <- mat.(ia).(ib) -. g;
    mat.(ib).(ia) <- mat.(ib).(ia) -. g
  end

(* current [i] injected INTO node [n] appears on the RHS *)
let[@inline] stamp_i i rhs n = if n > 0 then rhs.(n - 1) <- rhs.(n - 1) +. i

(* VCCS: current g * (v_cp - v_cn) flows from node [p] to node [n]
   (leaves p, enters n). First-order function on purpose — an inner
   closure here would allocate once per MOSFET per Newton iteration. *)
let[@inline] stamp_vccs_set mat r c v =
  if r > 0 && c > 0 then mat.(r - 1).(c - 1) <- mat.(r - 1).(c - 1) +. v

let[@inline] stamp_vccs g mat p n cp cn =
  stamp_vccs_set mat p cp g;
  stamp_vccs_set mat p cn (-.g);
  stamp_vccs_set mat n cp (-.g);
  stamp_vccs_set mat n cn g

(* capacitor companion conductance for one time step *)
let[@inline] cap_g ~(opts : Options.t) ~dt c =
  match opts.integrator with
  | Options.Backward_euler -> c /. dt
  | Options.Trapezoidal -> 2.0 *. c /. dt

let mosfet_stamps ~temp mat rhs x sys (m : C.Device.t) =
  match m with
  | C.Device.Mosfet { d; g; s; model; m = mult; _ } ->
    let vd = node_voltage sys x d
    and vg = node_voltage sys x g
    and vs = node_voltage sys x s in
    let vgs = vg -. vs and vds = vd -. vs in
    let e = C.Mosfet.ids model ~temp ~vgs ~vds in
    let id = e.id *. mult and gm = e.gm *. mult and gds = e.gds *. mult in
    (* linearized: Id(v) = Ieq + gm*vgs + gds*vds *)
    let ieq = id -. (gm *. vgs) -. (gds *. vds) in
    (* gds acts like a resistor d-s *)
    stamp_g gds mat d s;
    (* gm: current gm*(vg - vs) flowing d -> s *)
    stamp_vccs gm mat d s g s;
    (* Ieq flows from d to s through the device: leaves d, enters s *)
    stamp_i (-.ieq) rhs d;
    stamp_i ieq rhs s
  | C.Device.Resistor _ | C.Device.Capacitor _ | C.Device.Vsource _
  | C.Device.Isource _ | C.Device.Switch _ ->
    assert false

(* ------------------------------------------------------------------ *)
(* Incremental assembly workspace                                      *)
(* ------------------------------------------------------------------ *)

(* Slot stamping: the workspace holds only the structural entries of the
   system, one float per {!Sp.slot}, and each stamp adds into the slots
   its plan names. Every entry receives the additions of [stamp_g] /
   [stamp_vccs] in the same order, so a slot ends with the bits the
   dense entry would hold. *)

let[@inline] add_at vals s v = if s >= 0 then vals.(s) <- vals.(s) +. v

(* [stamp_g] on the four slots at [slots.(o ..)] *)
let[@inline] stamp_g_at g vals slots o =
  add_at vals slots.(o) g;
  add_at vals slots.(o + 1) g;
  let sab = slots.(o + 2) in
  if sab >= 0 then begin
    vals.(sab) <- vals.(sab) -. g;
    let sba = slots.(o + 3) in
    vals.(sba) <- vals.(sba) -. g
  end

type workspace = {
  w_size : int;
  vals : float array;      (* stamped structural values, slot order *)
  rhs : float array;       (* stamped RHS, overwritten with the solution *)
  tmpl : float array;      (* cached static-linear template, slot order *)
  (* scalar fields rather than a key tuple: the validity check runs every
     Newton iteration and must not allocate *)
  mutable tmpl_valid : bool;
  mutable tmpl_dt : float;
  mutable tmpl_gmin : float;
  mutable tmpl_trapezoidal : bool;
  mutable tmpl_excluded : int;
  (* per-lane resistance override (ensemble sweeps): plan index of the
     resistor excluded from the template, and the conductance stamped in
     its place after every template copy. [-1] = no override. Stamping
     the lane conductance directly — rather than adding a delta on top
     of the base stamp — keeps the lane's conductance exact across the
     full 1e3..1e11 Ohm sweep range (a delta cancels catastrophically
     when the lane and base conductances differ by orders of magnitude) *)
  mutable excluded_res : int;
  (* one slot: a float array stores unboxed, where a mutable float field
     of this mixed record would box on every lane switch *)
  override_g : float array;
  (* cached control evaluations for the current t_now, shared across
     ensemble lanes (one waveform walk per time point, not per lane) *)
  sw_g : float array;
  vs_v : float array;
  is_i : float array;
  (* per-MOSFET temperature terms for [mos_temp], rebuilt when the
     temperature changes (like the template on dt), and the evaluation
     registers every MOSFET stamp reuses *)
  mutable mos_terms : C.Mosfet.terms array;
  mutable mos_temp : float;
  bias : C.Mosfet.bias;
  scratch : float array;
  slu : Sp.t;
}

let make_workspace sys =
  let n = sys.size in
  {
    w_size = n;
    vals = Array.make (Sp.nnz sys.layout) 0.0;
    rhs = Array.make n 0.0;
    tmpl = Array.make (Sp.nnz sys.layout) 0.0;
    tmpl_valid = false;
    tmpl_dt = 0.0;
    tmpl_gmin = 0.0;
    tmpl_trapezoidal = false;
    tmpl_excluded = -1;
    excluded_res = -1;
    override_g = [| 0.0 |];
    sw_g = Array.make (Array.length sys.switches) 0.0;
    vs_v = Array.make (Array.length sys.vsrcs) 0.0;
    is_i = Array.make (Array.length sys.isrcs) 0.0;
    mos_terms = [||];
    mos_temp = Float.nan;
    bias = C.Mosfet.bias ();
    scratch = Array.make n 0.0;
    slu = Sp.create sys.layout;
  }

let set_resistor_override ws ~index ~g =
  ws.excluded_res <- index;
  ws.override_g.(0) <- g

let clear_resistor_override ws =
  ws.excluded_res <- -1;
  ws.override_g.(0) <- 0.0

(* Reference from-scratch assembly (the seed implementation), stamping
   device by device in netlist order into a dense matrix. It sums each
   entry in a different order from the template path below, so the two
   agree up to summation order (the last bits of most diagonal entries
   differ), not bit for bit; the golden traces are the bit oracle. A workspace [ws]
   contributes only its resistor override, stamped in place of the
   netlist value. *)
let assemble ?ws sys ~(opts : Options.t) ~t_now ~x ~reactive =
  let excluded, g_override =
    match ws with
    | Some ws -> (ws.excluded_res, ws.override_g.(0))
    | None -> (-1, 0.0)
  in
  let n = sys.size in
  let mat = L.create n n in
  let rhs = Array.make n 0.0 in
  (* gmin to ground on every node keeps floating subcircuits solvable *)
  for node = 1 to sys.n_nodes - 1 do
    mat.(node - 1).(node - 1) <- mat.(node - 1).(node - 1) +. opts.gmin
  done;
  let branch_row name = sys.n_nodes - 1 + Hashtbl.find sys.vsrc_branch name in
  let res = ref 0 in
  Array.iter
    (fun d ->
      match d with
      | C.Device.Resistor { a; b; r; _ } ->
        let g = if !res = excluded then g_override else 1.0 /. r in
        incr res;
        stamp_g g mat a b
      | C.Device.Switch { a; b; ctrl; g_on; g_off; threshold; _ } ->
        let g = if C.Waveform.eval ctrl t_now > threshold then g_on else g_off in
        stamp_g g mat a b
      | C.Device.Capacitor { name; a; b; c; _ } ->
        if reactive.dt > 0.0 then begin
          let vab_prev = reactive.prev_v.(a) -. reactive.prev_v.(b) in
          let slot = Hashtbl.find sys.cap_index name in
          let g = cap_g ~opts ~dt:reactive.dt c in
          let i_hist =
            match opts.integrator with
            | Options.Backward_euler -> g *. vab_prev
            | Options.Trapezoidal ->
              (g *. vab_prev) +. reactive.prev_cap_current.(slot)
          in
          stamp_g g mat a b;
          stamp_i i_hist rhs a;
          stamp_i (-.i_hist) rhs b
        end
      | C.Device.Vsource { name; pos; neg; wave } ->
        let row = branch_row name in
        (* branch current leaves pos, enters neg *)
        if pos > 0 then begin
          mat.(pos - 1).(row) <- mat.(pos - 1).(row) +. 1.0;
          mat.(row).(pos - 1) <- mat.(row).(pos - 1) +. 1.0
        end;
        if neg > 0 then begin
          mat.(neg - 1).(row) <- mat.(neg - 1).(row) -. 1.0;
          mat.(row).(neg - 1) <- mat.(row).(neg - 1) -. 1.0
        end;
        rhs.(row) <- C.Waveform.eval wave t_now
      | C.Device.Isource { pos; neg; wave; _ } ->
        let i = C.Waveform.eval wave t_now in
        (* positive current flows pos -> neg through the source: leaves
           the pos node, is injected into the neg node *)
        stamp_i (-.i) rhs pos;
        stamp_i i rhs neg
      | C.Device.Mosfet _ ->
        mosfet_stamps ~temp:opts.temp mat rhs x sys d)
    sys.compiled.devices;
  (mat, rhs)

(* static-linear part: gmin regularization, resistors, voltage-source
   topology and — for a fixed (dt, integrator) — the capacitor companion
   conductances. Everything here is independent of t, x and history. A
   resistor under lane override is left out (its lane conductance is
   stamped fresh after each template copy instead). *)
let rebuild_template sys ws ~(opts : Options.t) ~dt =
  let tmpl = ws.tmpl in
  Array.fill tmpl 0 (Array.length tmpl) 0.0;
  Array.iter (fun s -> add_at tmpl s opts.gmin) sys.gmin_slots;
  Array.iteri
    (fun i p ->
      if i <> ws.excluded_res then stamp_g_at p.g_res tmpl sys.res_slots (4 * i))
    sys.resistors;
  for i = 0 to Array.length sys.vsrcs - 1 do
    let sl = sys.vs_slots and o = 4 * i in
    add_at tmpl sl.(o) 1.0;
    add_at tmpl sl.(o + 1) 1.0;
    add_at tmpl sl.(o + 2) (-1.0);
    add_at tmpl sl.(o + 3) (-1.0)
  done;
  if dt > 0.0 then
    Array.iteri
      (fun i p ->
        stamp_g_at (cap_g ~opts ~dt p.cap) tmpl sys.cap_slots (4 * i))
      sys.caps

(* Evaluate every control waveform at [t_now] into the workspace
   buffers. Split out of assembly because the controls depend on the
   time point only: a Newton solve walks the waveforms once, not once
   per iteration, and the lanes of one run share the values (they
   integrate on one shared grid). *)
let eval_controls_into sys ws ~t_now =
  for i = 0 to Array.length sys.switches - 1 do
    let p = sys.switches.(i) in
    C.Waveform.eval_into p.ctrl t_now ws.sw_g i;
    ws.sw_g.(i) <- (if ws.sw_g.(i) > p.threshold then p.g_on else p.g_off)
  done;
  for i = 0 to Array.length sys.vsrcs - 1 do
    C.Waveform.eval_into sys.vsrcs.(i).v_wave t_now ws.vs_v i
  done;
  for i = 0 to Array.length sys.isrcs - 1 do
    C.Waveform.eval_into sys.isrcs.(i).i_wave t_now ws.is_i i
  done

(* assembly from pre-evaluated controls ([eval_controls_into]) *)
let assemble_into_pre sys ws ~(opts : Options.t) ~x ~reactive =
  let n = ws.w_size in
  assert (n = sys.size);
  let trapezoidal =
    match opts.integrator with
    | Options.Backward_euler -> false
    | Options.Trapezoidal -> true
  in
  (if
     (not ws.tmpl_valid)
     || ws.tmpl_dt <> reactive.dt
     || ws.tmpl_gmin <> opts.gmin
     || ws.tmpl_trapezoidal <> trapezoidal
     || ws.tmpl_excluded <> ws.excluded_res
   then begin
     Tel.Counter.incr c_template_rebuilds;
     rebuild_template sys ws ~opts ~dt:reactive.dt;
     ws.tmpl_valid <- true;
     ws.tmpl_dt <- reactive.dt;
     ws.tmpl_gmin <- opts.gmin;
     ws.tmpl_trapezoidal <- trapezoidal;
     ws.tmpl_excluded <- ws.excluded_res
   end);
  (* [<>] is true for the initial NaN, so the first assembly builds *)
  if ws.mos_temp <> opts.temp then begin
    ws.mos_terms <-
      Array.map (fun p -> C.Mosfet.terms p.model ~temp:opts.temp) sys.mosfets;
    ws.mos_temp <- opts.temp
  end;
  let vals = ws.vals and rhs = ws.rhs in
  Array.blit ws.tmpl 0 vals 0 (Array.length vals);
  Array.fill rhs 0 n 0.0;
  if ws.excluded_res >= 0 then
    stamp_g_at ws.override_g.(0) vals sys.res_slots (4 * ws.excluded_res);
  (* dynamic stamps: switch state and source values at t_now, capacitor
     history currents, MOSFET linearization around x. Indexed loops, not
     [Array.iter]: this body runs every Newton iteration and a closure per
     device class would be allocated on each call. *)
  for i = 0 to Array.length sys.switches - 1 do
    stamp_g_at ws.sw_g.(i) vals sys.sw_slots (4 * i)
  done;
  if reactive.dt > 0.0 then
    for i = 0 to Array.length sys.caps - 1 do
      let p = sys.caps.(i) in
      let vab_prev = reactive.prev_v.(p.c_a) -. reactive.prev_v.(p.c_b) in
      let g = cap_g ~opts ~dt:reactive.dt p.cap in
      let i_hist =
        match opts.integrator with
        | Options.Backward_euler -> g *. vab_prev
        | Options.Trapezoidal ->
          (g *. vab_prev) +. reactive.prev_cap_current.(p.slot)
      in
      stamp_i i_hist rhs p.c_a;
      stamp_i (-.i_hist) rhs p.c_b
    done;
  for i = 0 to Array.length sys.vsrcs - 1 do
    rhs.(sys.vsrcs.(i).row) <- ws.vs_v.(i)
  done;
  for i = 0 to Array.length sys.isrcs - 1 do
    let p = sys.isrcs.(i) in
    let i_src = ws.is_i.(i) in
    stamp_i (-.i_src) rhs p.i_pos;
    stamp_i i_src rhs p.i_neg
  done;
  let b = ws.bias in
  for i = 0 to Array.length sys.mosfets - 1 do
    let p = sys.mosfets.(i) in
    let vd = node_voltage sys x p.m_d
    and vg = node_voltage sys x p.m_g
    and vs = node_voltage sys x p.m_s in
    let vgs = vg -. vs and vds = vd -. vs in
    b.C.Mosfet.vgs <- vgs;
    b.C.Mosfet.vds <- vds;
    C.Mosfet.evaluate ws.mos_terms.(i) b;
    let id = b.C.Mosfet.i_d *. p.mult
    and gm = b.C.Mosfet.g_m *. p.mult
    and gds = b.C.Mosfet.g_ds *. p.mult in
    let ieq = id -. (gm *. vgs) -. (gds *. vds) in
    let sl = sys.mos_slots and o = 8 * i in
    stamp_g_at gds vals sl o;
    (* [stamp_vccs gm] with (p, n, cp, cn) = (d, s, g, s) *)
    add_at vals sl.(o + 4) gm;
    add_at vals sl.(o + 5) (-.gm);
    add_at vals sl.(o + 6) (-.gm);
    add_at vals sl.(o + 7) gm;
    stamp_i (-.ieq) rhs p.m_d;
    stamp_i ieq rhs p.m_s
  done

module Chaos = Dramstress_util.Chaos

let solve_in_place sys ws =
  record_factor_solve ();
  if Chaos.armed () && Chaos.fire Chaos.Perturb_jacobian then
    (* zero a row: crisply rank-deficient, so the factorization's pivot
       guard must catch it — the detection the chaos harness asserts *)
    for col = 0 to ws.w_size - 1 do
      let s = Sp.slot sys.layout 0 col in
      if s >= 0 then ws.vals.(s) <- 0.0
    done;
  Sp.factor_values ws.slu ws.vals;
  Sp.solve ws.slu ~scratch:ws.scratch ws.rhs

let solution ws = ws.rhs
let pivot_order ws = Sp.pivot_order ws.slu

(* [out] may alias [reactive.prev_cap_current]: each capacitor reads
   only its own slot's previous current before overwriting that same
   slot, so the in-place update is well-defined. *)
let cap_currents_into sys ~(opts : Options.t) ~x ~reactive ~out =
  if reactive.dt > 0.0 then
    for k = 0 to Array.length sys.caps - 1 do
      let p = sys.caps.(k) in
      let vab = node_voltage sys x p.c_a -. node_voltage sys x p.c_b in
      let vab_prev = reactive.prev_v.(p.c_a) -. reactive.prev_v.(p.c_b) in
      out.(p.slot) <-
        (match opts.integrator with
        | Options.Backward_euler -> p.cap /. reactive.dt *. (vab -. vab_prev)
        | Options.Trapezoidal ->
          (2.0 *. p.cap /. reactive.dt *. (vab -. vab_prev))
          -. reactive.prev_cap_current.(p.slot))
    done
  else
    for k = 0 to Array.length sys.caps - 1 do
      out.(sys.caps.(k).slot) <- 0.0
    done

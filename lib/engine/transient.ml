module C = Dramstress_circuit
module I = Dramstress_util.Interp
module Tel = Dramstress_util.Telemetry

let c_accepted = Tel.Counter.make "engine.transient.steps_accepted"
let c_rejected = Tel.Counter.make "engine.transient.steps_rejected"

let h_dt =
  Tel.Histogram.make ~unit_:"s" ~lo:1e-15 ~hi:1e-3 ~buckets:48
    "engine.transient.dt_s"

let c_lanes = Tel.Counter.make "engine.ensemble.lanes"
let c_batches = Tel.Counter.make "engine.ensemble.batches"
let c_masked = Tel.Counter.make "engine.ensemble.masked_lane_iters"
let c_lane_failures = Tel.Counter.make "engine.ensemble.lane_failures"

(* always-on mirrors, the [--metrics] reconciliation source (same
   contract as [Ops.Cache.stats] and [Sparse_lu.stats]) *)
let g_lanes = Atomic.make 0
let g_batches = Atomic.make 0
let g_masked = Atomic.make 0
let g_lane_failures = Atomic.make 0

type stats = {
  lanes : int;
  batches : int;
  masked_lane_iters : int;
  lane_failures : int;
}

let stats () =
  {
    lanes = Atomic.get g_lanes;
    batches = Atomic.get g_batches;
    masked_lane_iters = Atomic.get g_masked;
    lane_failures = Atomic.get g_lane_failures;
  }

let reset_stats () =
  Atomic.set g_lanes 0;
  Atomic.set g_batches 0;
  Atomic.set g_masked 0;
  Atomic.set g_lane_failures 0

type snapshot = {
  step : int;
  t : float;
  x : float array;
  prev_v : float array;
  cap_hist : float array;
  pivots : int array option;
}

type result = {
  times : float array;
  probe_names : string array;
  probe_values : float array array;
  final_v : float array;
  probe_interps : (string, I.t) Hashtbl.t;
  snapshots : snapshot option array;
  start_step : int;
}

exception
  Step_failed of {
    seg_start : float;
    seg_end : float;
    t : float;
    dt : float;
    retries : int;
    iterations : int;
    worst : float;
  }

exception Resume_refused of { step : int }

let () =
  Printexc.register_printer (function
    | Step_failed { seg_start; seg_end; t; dt; retries; iterations; worst } ->
      Some
        (Printf.sprintf
           "Transient.Step_failed { segment %.4g..%.4g s; t=%.4g s; dt=%.4g \
            s; %d halving retries exhausted; %d Newton iterations; worst \
            update %.3g V }"
           seg_start seg_end t dt retries iterations worst)
    | Resume_refused { step } ->
      Some
        (Printf.sprintf
           "Transient.Resume_refused { step %d: the run factors under another \
            pivot order than the snapshot }"
           step)
    | _ -> None)

let probe result name =
  match Hashtbl.find_opt result.probe_interps name with
  | Some interp -> interp
  | None -> raise Not_found

let value_at result name t = I.eval (probe result name) t

(* the sampled times strictly increase, so the interpolant can take the
   arrays directly without the sort/dedup pass of [I.of_points] *)
let make_interps times probe_names probe_values =
  let tbl = Hashtbl.create (Array.length probe_names) in
  Array.iteri
    (fun i name ->
      if not (Hashtbl.mem tbl name) then
        Hashtbl.add tbl name (I.of_sorted_arrays times probe_values.(i)))
    probe_names;
  tbl

(* the accepted-time grid of a segment plan, walked once up front; every
   lane accepts exactly these time points *)
type grid = {
  segments : (float * float) array;  (* the plan after [opts.dt_scale] *)
  seg_start : float array;  (* per segment: its start time, s *)
  step_seg : int array;  (* per step: the index of its segment *)
  t_prev : float array;  (* per step: the time it starts from, s *)
  points : float array;  (* [0.0], then step [k] ends at [points.(k + 1)] *)
  seg_end_pt : int array;  (* per segment: the grid point it ends at *)
}

(* Two passes of one walk: count the steps, then fill the arrays. Plain
   loops over local refs, so the walk itself allocates nothing. *)
let grid ~who (opts : Options.t) segments =
  if not (opts.Options.dt_scale > 0.0) then
    invalid_arg (who ^ ": dt_scale must be positive");
  (* the degradation knob: refine every segment's nominal step uniformly
     without touching the segment plan itself *)
  let segments =
    if opts.Options.dt_scale = 1.0 then segments
    else
      List.map (fun (t_end, dt) -> (t_end, dt *. opts.Options.dt_scale))
        segments
  in
  (match segments with
  | [] -> invalid_arg (who ^ ": no segments")
  | _ ->
    ignore
      (List.fold_left
         (fun t_prev (t_end, dt) ->
           if dt <= 0.0 then invalid_arg (who ^ ": dt <= 0");
           if t_end <= t_prev then
             invalid_arg (who ^ ": segment ends must increase");
           t_end)
         0.0 segments));
  let segments = Array.of_list segments in
  let n_segs = Array.length segments in
  let n_steps = ref 0 and t = ref 0.0 in
  for si = 0 to n_segs - 1 do
    let t_end, dt = segments.(si) in
    while !t < t_end -. (dt /. 2.0) do
      t := Float.min t_end (!t +. dt);
      incr n_steps
    done;
    t := Float.max !t t_end
  done;
  let step_seg = Array.make !n_steps 0 in
  let t_prev = Array.make !n_steps 0.0 in
  let points = Array.make (!n_steps + 1) 0.0 in
  let seg_end_pt = Array.make n_segs 0 in
  let k = ref 0 in
  t := 0.0;
  for si = 0 to n_segs - 1 do
    let t_end, dt = segments.(si) in
    while !t < t_end -. (dt /. 2.0) do
      let t_next = Float.min t_end (!t +. dt) in
      step_seg.(!k) <- si;
      t_prev.(!k) <- !t;
      points.(!k + 1) <- t_next;
      incr k;
      t := t_next
    done;
    seg_end_pt.(si) <- !k;
    t := Float.max !t t_end
  done;
  {
    segments;
    seg_start =
      Array.init n_segs (fun si -> if si = 0 then 0.0 else fst segments.(si - 1));
    step_seg;
    t_prev;
    points;
    seg_end_pt;
  }

type lane = {
  ics : (string * float) list;
  override : (string * float) option;
  resume : (snapshot * float array array) option;
}

let integrate ~who compiled ~opts ~deadline_at ~segments ~snapshot_at ~lanes
    ~probes =
  let n_lanes = Array.length lanes in
  if n_lanes = 0 then invalid_arg (who ^ ": no lanes");
  Tel.Counter.incr c_batches;
  Tel.Counter.add c_lanes n_lanes;
  Atomic.incr g_batches;
  ignore (Atomic.fetch_and_add g_lanes n_lanes);
  let grid = grid ~who opts segments in
  let n_segs = Array.length grid.segments in
  Array.iter
    (fun si ->
      if si < 0 || si >= n_segs then
        invalid_arg (who ^ ": snapshot segment out of range"))
    snapshot_at;
  let sys = Mna.make compiled in
  let ws = Mna.make_workspace sys in
  let n_nodes = Mna.n_nodes sys in
  let size = Mna.size sys in
  let n_caps = Mna.n_capacitors sys in
  (* one shared topology: every overriding lane must name the same
     resistor; lanes without an override ride at the netlist value *)
  let override_index = ref (-1) in
  let override_g = Array.make n_lanes 0.0 in
  Array.iteri
    (fun li lane ->
      match lane.override with
      | None -> ()
      | Some (name, r) -> (
        if not (r > 0.0) then
          invalid_arg (who ^ ": override resistance must be positive");
        match Mna.resistor_index sys name with
        | None -> invalid_arg (who ^ ": unknown resistor " ^ name)
        | Some idx ->
          if !override_index = -1 then override_index := idx
          else if !override_index <> idx then
            invalid_arg (who ^ ": lanes must override the same resistor");
          override_g.(li) <- 1.0 /. r))
    lanes;
  let override_index = !override_index in
  if override_index >= 0 then
    Array.iteri
      (fun li lane ->
        if lane.override = None then
          override_g.(li) <- Mna.resistor_g sys override_index)
      lanes;
  let probe_ids =
    Array.of_list
      (List.map
         (fun name ->
           try C.Netlist.compiled_node compiled name
           with Not_found -> invalid_arg (who ^ ": unknown probe node " ^ name))
         probes)
  in
  let n_probes = Array.length probe_ids in
  let times = grid.points in
  let n_pts = Array.length times in
  let n_steps = n_pts - 1 in
  Array.iter
    (fun lane ->
      match lane.resume with
      | None -> ()
      | Some (snap, prefix) ->
        if
          snap.step < 0 || snap.step > n_steps
          || snap.t <> times.(snap.step)
          || Array.length snap.x <> size
          || Array.length snap.prev_v <> n_nodes
          || Array.length snap.cap_hist <> Int.max 1 n_caps
          || Array.length prefix <> n_probes
          || Array.exists (fun row -> Array.length row <= snap.step) prefix
        then invalid_arg (who ^ ": snapshot does not fit this run"))
    lanes;
  (* per-lane state rows: committed unknowns, working Newton iterate,
     previous accepted node voltages, capacitor history. Row identity is
     stable for the whole run — the Newton loop and [Mna] read and write
     the rows directly, so a solve allocates nothing per lane per
     iteration (only the per-solve [reactive] records below). *)
  let xs = Array.init n_lanes (fun _ -> Array.make size 0.0) in
  let xw = Array.init n_lanes (fun _ -> Array.make size 0.0) in
  let pvs = Array.init n_lanes (fun _ -> Array.make n_nodes 0.0) in
  let pcs = Array.init n_lanes (fun _ -> Array.make (Int.max 1 n_caps) 0.0) in
  (* per-lane ICs -> committed state *)
  Array.iteri
    (fun li lane ->
      let v = pvs.(li) in
      List.iter
        (fun (name, value) ->
          match
            try Some (C.Netlist.compiled_node compiled name)
            with Not_found -> None
          with
          | Some n ->
            if n = 0 then invalid_arg (who ^ ": cannot set ground IC");
            v.(n) <- value
          | None -> invalid_arg (who ^ ": unknown IC node " ^ name))
        lane.ics;
      Array.blit (Mna.pack sys v) 0 xs.(li) 0 size)
    lanes;
  let dead : exn option array = Array.make n_lanes None in
  let n_alive = ref n_lanes in
  (* the grid step each lane starts at: 0, or a resumed lane's snapshot
     step; a lane sits out every step before it, like a dead lane *)
  let start = Array.make n_lanes 0 in
  (* sample rows are allocated once a lane's initial solve succeeds: a
     lane that fails at t = 0 never needs them *)
  let samples = Array.make n_lanes [||] in
  let record li pt =
    let lane_samples = samples.(li) in
    let pv = pvs.(li) in
    for p = 0 to n_probes - 1 do
      lane_samples.(p).(pt) <- pv.(probe_ids.(p))
    done
  in
  let lane_failed li e =
    dead.(li) <- Some e;
    decr n_alive;
    Tel.Counter.incr c_lane_failures;
    Atomic.incr g_lane_failures
  in
  (* per-solve flags, reused across solves *)
  let active = Array.make n_lanes false in
  let lane_done = Array.make n_lanes false in
  let lane_err : exn option array = Array.make n_lanes None in
  let lane_diverge = Array.make n_lanes false in
  (* per-lane reactive records, rebuilt each solve (dt' changes); the
     prev arrays alias the lane's state rows, so [Mna] reads them with
     no copying *)
  let reacts =
    Array.make n_lanes
      { Mna.dt = 0.0; prev_v = [||]; prev_cap_current = [||] }
  in
  (* Masked batched Newton solve at one time point of grid step [k] for
     every live lane that has started by then, or for lane [only] alone
     when [only >= 0]. Each sweep of the loop performs one
     {!Newton.iterate} per still-running lane, staged through the shared
     workspace, so per lane the iterates are exactly those of a
     [Newton.solve]. On exit [lane_done]/[lane_err] hold the per-lane
     verdicts; a converged lane's iterate is in its [xw] row.
     [Newton.Timeout] leaves the run at once. *)
  let solve_batch ~t_now ~dt' ~k ~only =
    Mna.eval_controls_into sys ws ~t_now;
    let n_active = ref 0 in
    for li = 0 to n_lanes - 1 do
      let a = dead.(li) = None && start.(li) <= k && (only < 0 || only = li) in
      active.(li) <- a;
      lane_done.(li) <- false;
      lane_err.(li) <- None;
      lane_diverge.(li) <- false;
      if a then begin
        incr n_active;
        Array.blit xs.(li) 0 xw.(li) 0 size;
        reacts.(li) <-
          { Mna.dt = dt'; prev_v = pvs.(li); prev_cap_current = pcs.(li) }
      end
    done;
    let remaining = ref !n_active in
    let iter = ref 0 in
    while !remaining > 0 do
      incr iter;
      let iter = !iter in
      if iter > 1 then begin
        (* lanes that already converged sit this sweep out *)
        let masked = !n_active - !remaining in
        if masked > 0 then begin
          Tel.Counter.add c_masked masked;
          ignore (Atomic.fetch_and_add g_masked masked)
        end
      end;
      for li = 0 to n_lanes - 1 do
        if active.(li) && (not lane_done.(li)) && lane_err.(li) = None then begin
          if iter = 1 then lane_diverge.(li) <- Newton.chaos_diverge ();
          if override_index >= 0 then
            Mna.set_resistor_override ws ~index:override_index
              ~g:override_g.(li);
          match
            Newton.iterate sys ws ~opts ~deadline_at ~t_now
              ~reactive:reacts.(li) ~diverge:lane_diverge.(li) ~iter xw.(li)
          with
          | true ->
            lane_done.(li) <- true;
            decr remaining
          | false -> ()
          | exception ((Newton.No_convergence _ | Newton.Numerical_health _) as e)
            ->
            lane_err.(li) <- Some e;
            decr remaining
        end
      done
    done
  in
  (* accept the converged iterate in [xw] as lane [li]'s new state;
     [reacts.(li)] still holds the reactive record of the solve that
     produced the iterate (same dt', prev arrays alias this lane's
     rows), and [cap_currents_into] updates the history in place —
     each slot's previous current is read before it is overwritten *)
  let commit li =
    let x = xw.(li) in
    Array.blit x 0 xs.(li) 0 size;
    Mna.cap_currents_into sys ~opts ~x ~reactive:reacts.(li) ~out:pcs.(li);
    let pv = pvs.(li) in
    for n = 1 to n_nodes - 1 do
      pv.(n) <- x.(n - 1)
    done;
    pv.(0) <- 0.0
  in
  let accept li dt =
    Tel.Counter.incr c_accepted;
    Tel.Histogram.observe h_dt dt;
    commit li
  in
  (* initial quasi-static solve: a near-zero BE step pins capacitor
     voltages at their ICs while making resistive nodes consistent. A
     lane whose init solve fails carries the Newton error itself (no
     step retries exist at t=0). Resumed lanes take part too, so the
     run's first sparse-LU analysis is the one a run from t = 0 makes. *)
  let dt0_qs = 1e-18 in
  solve_batch ~t_now:0.0 ~dt':dt0_qs ~k:0 ~only:(-1);
  for li = 0 to n_lanes - 1 do
    match lane_err.(li) with
    | Some e -> lane_failed li e
    | None ->
      commit li;
      samples.(li) <- Array.make_matrix n_probes n_pts 0.0;
      record li 0
  done;
  (* A resumed lane replaces its t = 0 state with the snapshot's and
     copies the samples up to it, provided the pivot order now in force
     is the one the snapshot was taken under; otherwise it runs from
     t = 0 like any other lane. *)
  let pivots0 = Mna.pivot_order ws in
  Array.iteri
    (fun li lane ->
      match lane.resume with
      | Some (snap, prefix) when dead.(li) = None && snap.pivots = pivots0 ->
        start.(li) <- snap.step;
        Array.blit snap.x 0 xs.(li) 0 size;
        Array.blit snap.prev_v 0 pvs.(li) 0 n_nodes;
        Array.blit snap.cap_hist 0 pcs.(li) 0 (Array.length snap.cap_hist);
        Array.iteri
          (fun p row -> Array.blit row 0 samples.(li).(p) 0 (snap.step + 1))
          prefix
      | Some _ | None -> ())
    lanes;
  let max_retries = 4 in
  (* one lane's way through a grid step whose full-length attempt
     failed: halve the step and retry, then walk the remaining halves;
     an exhausted retry budget surfaces as [Step_failed] so sweep-level
     callers can report which point died. A numerically sick step gets
     the same halving retries — a smaller step often routes around the
     sick region — but an exhausted budget re-raises the typed health
     error itself so the retry ladder and sweep reports keep the
     diagnosis. *)
  let catchup li ~k ~seg_start ~seg_end ~t_next ~t_prev0 ~dt0 ~first_err =
    let rec attempt t_prev dt retries =
      let t_now = t_prev +. dt in
      solve_batch ~t_now ~dt':dt ~k ~only:li;
      if lane_done.(li) then begin
        accept li dt;
        if t_now >= t_next -. 1e-21 then ()
        else attempt t_now (t_next -. t_now) retries
      end
      else handle t_prev dt retries (Option.get lane_err.(li))
    and handle t_prev dt retries err =
      Tel.Counter.incr c_rejected;
      match err with
      | Newton.No_convergence { t; iterations; worst } ->
        if retries > 0 then attempt t_prev (dt /. 2.0) (retries - 1)
        else
          raise
            (Step_failed
               { seg_start; seg_end; t; dt; retries = max_retries; iterations;
                 worst })
      | _ (* Numerical_health *) ->
        if retries > 0 then attempt t_prev (dt /. 2.0) (retries - 1)
        else raise err
    in
    handle t_prev0 dt0 max_retries first_err
  in
  (* snapshot of the full-step attempt's per-lane verdicts, taken before
     any catch-up (whose solves reuse the shared flag arrays) *)
  let step_ok = Array.make n_lanes false in
  let step_err : exn option array = Array.make n_lanes None in
  let step k ~seg_start ~seg_end =
    (* a lane joining at this step needs the snapshot's pivot order; in
       a run of several lanes its batch mates may have moved the
       analysis since t = 0 *)
    for li = 0 to n_lanes - 1 do
      if k > 0 && start.(li) = k && dead.(li) = None then
        match lanes.(li).resume with
        | Some (snap, _) when snap.pivots <> Mna.pivot_order ws ->
          lane_failed li (Resume_refused { step = k })
        | Some _ | None -> ()
    done;
    let t_prev = grid.t_prev.(k) and t_next = times.(k + 1) in
    let dt0 = t_next -. t_prev in
    solve_batch ~t_now:t_next ~dt':dt0 ~k ~only:(-1);
    for li = 0 to n_lanes - 1 do
      step_ok.(li) <- lane_done.(li);
      step_err.(li) <- lane_err.(li)
    done;
    for li = 0 to n_lanes - 1 do
      if dead.(li) = None && step_ok.(li) then accept li dt0
    done;
    for li = 0 to n_lanes - 1 do
      if dead.(li) = None && start.(li) <= k && not step_ok.(li) then begin
        let first_err = Option.get step_err.(li) in
        match
          catchup li ~k ~seg_start ~seg_end ~t_next ~t_prev0:t_prev ~dt0
            ~first_err
        with
        | () -> ()
        | exception ((Step_failed _ | Newton.Numerical_health _) as e) ->
          lane_failed li e
      end
    done;
    for li = 0 to n_lanes - 1 do
      if dead.(li) = None && start.(li) <= k then record li (k + 1)
    done
  in
  (* boundary states at the named segment ends, per lane in
     [snapshot_at] order; a lane records only the ends it integrated *)
  let snaps =
    Array.init n_lanes (fun _ -> Array.make (Array.length snapshot_at) None)
  in
  let snapshot li pt =
    { step = pt; t = times.(pt); x = Array.copy xs.(li);
      prev_v = Array.copy pvs.(li); cap_hist = Array.copy pcs.(li);
      pivots = Mna.pivot_order ws }
  in
  let take_snapshots seg =
    let pt = grid.seg_end_pt.(seg) in
    Array.iteri
      (fun j si ->
        if si = seg then
          for li = 0 to n_lanes - 1 do
            if dead.(li) = None && start.(li) < pt then
              snaps.(li).(j) <- Some (snapshot li pt)
          done)
      snapshot_at
  in
  (* segments every live lane has already passed are skipped whole *)
  let k0 = ref n_steps in
  for li = 0 to n_lanes - 1 do
    if dead.(li) = None then k0 := Int.min !k0 start.(li)
  done;
  let k = ref !k0 in
  let si = ref 0 in
  if !k0 > 0 then
    while !si < n_segs && grid.seg_end_pt.(!si) <= !k0 do
      incr si
    done;
  while !si < n_segs && !n_alive > 0 do
    let seg = !si in
    let seg_start = grid.seg_start.(seg) in
    let seg_end, dt = grid.segments.(seg) in
    Tel.with_span "transient.segment"
      ~attrs:(fun () ->
        [ ("t_start", Tel.Float seg_start);
          ("t_end", Tel.Float seg_end);
          ("dt", Tel.Float dt) ])
      (fun () ->
        while !k < n_steps && grid.step_seg.(!k) = seg && !n_alive > 0 do
          step !k ~seg_start ~seg_end;
          incr k
        done);
    take_snapshots seg;
    incr si
  done;
  let probe_names = Array.of_list probes in
  Array.init n_lanes (fun li ->
      match dead.(li) with
      | Some e -> Error e
      | None ->
        let probe_values = samples.(li) in
        Ok
          {
            times;
            probe_names;
            probe_values;
            final_v = Array.copy pvs.(li);
            probe_interps = make_interps times probe_names probe_values;
            snapshots = snaps.(li);
            start_step = start.(li);
          })

let run_lanes compiled ?(opts = Options.default) ?deadline_at
    ?(snapshot_at = [||]) ~segments ~lanes ~probes () =
  integrate ~who:"Transient.run_lanes" compiled ~opts ~deadline_at ~segments
    ~snapshot_at ~lanes ~probes

let run compiled ?(opts = Options.default) ?deadline_at ~segments ~ics ~probes
    () =
  match
    (integrate ~who:"Transient.run" compiled ~opts ~deadline_at ~segments
       ~snapshot_at:[||]
       ~lanes:[| { ics; override = None; resume = None } |]
       ~probes).(0)
  with
  | Ok result -> result
  | Error e -> raise e

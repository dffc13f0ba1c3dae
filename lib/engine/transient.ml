module C = Dramstress_circuit
module I = Dramstress_util.Interp
module Tel = Dramstress_util.Telemetry

let c_runs = Tel.Counter.make "engine.transient.runs"
let c_accepted = Tel.Counter.make "engine.transient.steps_accepted"
let c_rejected = Tel.Counter.make "engine.transient.steps_rejected"

let h_dt =
  Tel.Histogram.make ~unit_:"s" ~lo:1e-15 ~hi:1e-3 ~buckets:48
    "engine.transient.dt_s"

type result = {
  times : float array;
  probe_names : string array;
  probe_values : float array array;
  final_v : float array;
  probe_interps : (string, I.t) Hashtbl.t;
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

let () =
  Printexc.register_printer (function
    | Step_failed { seg_start; seg_end; t; dt; retries; iterations; worst } ->
      Some
        (Printf.sprintf
           "Transient.Step_failed { segment %.4g..%.4g s; t=%.4g s; dt=%.4g \
            s; %d halving retries exhausted; %d Newton iterations; worst \
            update %.3g V }"
           seg_start seg_end t dt retries iterations worst)
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

type grid = {
  segments : (float * float) array;
  seg_start : float array;
  step_seg : int array;
  t_prev : float array;
  points : float array;
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
    t := Float.max !t t_end
  done;
  {
    segments;
    seg_start =
      Array.init n_segs (fun si -> if si = 0 then 0.0 else fst segments.(si - 1));
    step_seg;
    t_prev;
    points;
  }

let run compiled ?(opts = Options.default) ?deadline_at ~segments ~ics ~probes
    () =
  Tel.Counter.incr c_runs;
  let grid = grid ~who:"Transient.run" opts segments in
  let sys = Mna.make compiled in
  let ws = Mna.make_workspace sys in
  let n_nodes = Mna.n_nodes sys in
  let v = Array.make n_nodes 0.0 in
  List.iter
    (fun (name, value) ->
      match
        (try Some (C.Netlist.compiled_node compiled name) with Not_found -> None)
      with
      | Some n ->
        if n = 0 then invalid_arg "Transient.run: cannot set ground IC";
        v.(n) <- value
      | None -> invalid_arg ("Transient.run: unknown IC node " ^ name))
    ics;
  let probe_ids =
    Array.of_list
      (List.map
         (fun name ->
           try C.Netlist.compiled_node compiled name
           with Not_found ->
             invalid_arg ("Transient.run: unknown probe node " ^ name))
         probes)
  in
  (* initial quasi-static solve: a near-zero BE step pins capacitor
     voltages at their ICs while making resistive nodes consistent *)
  let reactive0 =
    { (Mna.init_reactive sys ~prev_v:v) with Mna.dt = 1e-18 }
  in
  let x =
    ref (Newton.solve sys ~ws ?deadline_at ~opts ~t_now:0.0
           ~reactive:reactive0 ~x0:(Mna.pack sys v) ())
  in
  (* the accepted state, updated in place on every accepted step *)
  let prev_v = Mna.voltages sys !x in
  let prev_cap = Array.make (Mna.n_capacitors sys) 0.0 in
  Mna.cap_currents_into sys ~opts ~x:!x ~reactive:reactive0 ~out:prev_cap;
  let times = grid.points in
  let n_probes = Array.length probe_ids in
  let probe_values = Array.make_matrix n_probes (Array.length times) 0.0 in
  let record pt =
    for p = 0 to n_probes - 1 do
      probe_values.(p).(pt) <- prev_v.(probe_ids.(p))
    done
  in
  record 0;
  let max_retries = 4 in
  (* one accepted step from the current state to t_next, with halving
     retries on Newton failure; an exhausted retry budget surfaces as
     Step_failed so sweep-level callers can report which point died *)
  let advance ~seg_start ~seg_end t_prev t_next =
    let rec attempt t_prev dt retries =
      let t_now = t_prev +. dt in
      let reactive = { Mna.dt; prev_v; prev_cap_current = prev_cap } in
      match Newton.solve sys ~ws ?deadline_at ~opts ~t_now ~reactive ~x0:!x ()
      with
      | x_new ->
        Tel.Counter.incr c_accepted;
        Tel.Histogram.observe h_dt dt;
        x := x_new;
        (* [prev_cap] is read and overwritten slot by slot; [prev_v]
           still holds the previous point until the loop below *)
        Mna.cap_currents_into sys ~opts ~x:x_new ~reactive ~out:prev_cap;
        for n = 1 to n_nodes - 1 do
          prev_v.(n) <- x_new.(n - 1)
        done;
        if t_now >= t_next -. 1e-21 then ()
        else attempt t_now (t_next -. t_now) retries
      | exception Newton.No_convergence { t; iterations; worst } ->
        Tel.Counter.incr c_rejected;
        if retries > 0 then attempt t_prev (dt /. 2.0) (retries - 1)
        else
          raise
            (Step_failed
               { seg_start; seg_end; t; dt; retries = max_retries; iterations;
                 worst })
      (* a numerically sick step gets the same halving retries — a
         smaller step often routes around the sick region — but an
         exhausted budget re-raises the typed health error itself so
         the retry ladder and sweep reports keep the diagnosis.
         Newton.Timeout is deliberately not caught: a point past its
         wall-clock budget must fail now, not retry. *)
      | exception (Newton.Numerical_health _ as e) ->
        Tel.Counter.incr c_rejected;
        if retries > 0 then attempt t_prev (dt /. 2.0) (retries - 1)
        else raise e
    in
    attempt t_prev (t_next -. t_prev) max_retries
  in
  let n_steps = Array.length grid.t_prev in
  let k = ref 0 in
  Array.iteri
    (fun si (t_end, dt) ->
      let seg_start = grid.seg_start.(si) in
      Tel.with_span "transient.segment"
        ~attrs:(fun () ->
          [ ("t_start", Tel.Float seg_start);
            ("t_end", Tel.Float t_end);
            ("dt", Tel.Float dt) ])
        (fun () ->
          while !k < n_steps && grid.step_seg.(!k) = si do
            advance ~seg_start ~seg_end:t_end grid.t_prev.(!k) times.(!k + 1);
            incr k;
            record !k
          done))
    grid.segments;
  let probe_names = Array.of_list probes in
  {
    times;
    probe_names;
    probe_values;
    final_v = prev_v;
    probe_interps = make_interps times probe_names probe_values;
  }

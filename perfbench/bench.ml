(* The repository benchmark.

     bench.exe --workload table1|sweep-served|replay-served --seed N
               --seconds S --trace 0|1 --exe PATH-TO-dramstress

   Everything runs from this one load-generating process with jobs = 1;
   the served workloads spawn [dramstress serve] with one sandbox
   worker and drive it closed-loop through [Service.Client.submit] (one
   client, which waits for each reply before it submits again). The
   program only ever sees the manifests generated here from the seed.

   With --trace 0 the run is timed with tracing off and the last
   stdout line carries the end-to-end metrics; with --trace 1 the run
   repeats one unit of the workload untraced and traced, collects the
   per-layer counts and spans, writes the spans as JSON lines under
   .bench_build/perfbench/, and the last line carries the per-layer
   metrics. See perfbench/README.md for what each metric means. *)

module H = Harness
module St = Dramstress_util.Store
module Pp = Dramstress_util.Procpool
module D = Dramstress_defect.Defect
module S = Dramstress_dram.Stress
module O = Dramstress_dram.Ops
module C = Dramstress_core
module Cp = Dramstress_campaign
module P = Cp.Protocol
module Svc = Cp.Service

let work_root = ".bench_build/perfbench"

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  exe : string;
}

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let rec take n = function
  | x :: xs when n > 0 -> x :: take (n - 1) xs
  | _ -> []

(* Units of work are repeated until the run has used its seconds: a
   new unit starts only if the mean unit so far still fits in 110 % of
   them, and there is always at least one. *)
let repeat_units ~seconds unit =
  let t0 = H.now () in
  let rec go acc n =
    let v = unit () in
    let elapsed = H.now () -. t0 in
    let n = n + 1 in
    if elapsed +. (elapsed /. float_of_int n) <= 1.1 *. seconds then
      go (v :: acc) n
    else List.rev (v :: acc)
  in
  go [] 0

(* ------------------------------------------------------------------ *)
(* per-layer unit costs on the built column                            *)
(* ------------------------------------------------------------------ *)

let open_defect = D.v (D.Open_cell D.At_bitline_contact) D.True_bl 200e3

(* one numeric sparse-LU factorization of the column's MNA matrix, us *)
let sparse_lu_factor_us () =
  let module Mna = Dramstress_engine.Mna in
  let module Slu = Dramstress_util.Sparse_lu in
  let tech = Dramstress_dram.Tech.default in
  let built =
    Dramstress_dram.Column.build ~tech ~vdd:S.nominal.S.vdd
      ~controls:Dramstress_dram.Column.idle_controls ~defect:open_defect ()
  in
  let sys = Mna.make built.Dramstress_dram.Column.compiled in
  let x = Array.make (Mna.size sys) 0.0 in
  let reactive =
    {
      (Mna.init_reactive sys ~prev_v:(Array.make (Mna.n_nodes sys) 0.0)) with
      Mna.dt = 1e-10;
    }
  in
  let g, _ =
    Mna.assemble sys ~opts:Dramstress_engine.Options.default ~t_now:0.0 ~x
      ~reactive
  in
  let lu = Slu.make ~n:(Mna.size sys) ~pattern:(Mna.structural_pattern sys) in
  Slu.factor lu g;
  let reps = 4000 in
  H.median
    (List.init 5 (fun _ ->
         let dt, () =
           H.timed (fun () ->
               for _ = 1 to reps do
                 Slu.factor lu g
               done)
         in
         1e6 *. dt /. float_of_int reps))

(* wall time of one uncached write-write-write-read sequence on the
   column, per Newton iteration it takes, us *)
let newton_iteration_us () =
  let ops = [ O.W1; O.W1; O.W0; O.R ] in
  let run () =
    let cache = O.Cache.create ~enabled:false () in
    ignore (O.run ~cache ~stress:S.nominal ~defect:open_defect ~vc_init:0.0 ops)
  in
  let (), delta, _ = H.with_counters run in
  let iters = H.count delta "engine.newton.iterations" in
  let t = H.median (List.init 5 (fun _ -> fst (H.timed run))) in
  1e6 *. t /. float_of_int (Int.max 1 iters)

(* ------------------------------------------------------------------ *)
(* engine-layer metrics from telemetry counter deltas                  *)
(* ------------------------------------------------------------------ *)

let engine_metrics ~delta ~words ~searches ~search_ms ~cache_entries =
  let c = H.count delta in
  let f name = float_of_int (c name) in
  let sims = f "dram.ops.cache_misses" in
  let probes = f "core.border.probes" in
  [
    H.m "newton.iterations" "count" (f "engine.newton.iterations");
    H.m "newton.solves" "count" (f "engine.newton.solves");
    H.m "newton.iterations_per_solve" "ratio"
      (H.ratio (f "engine.newton.iterations") (f "engine.newton.solves"));
    H.m "mna.lu_factors" "count" (f "engine.mna.lu_factors");
    H.m "sparse_lu.numeric_refactor" "count" (f "util.sparse_lu.numeric_refactor");
    H.m "sparse_lu.symbolic_analyses" "count"
      (f "util.sparse_lu.symbolic_analyses");
    H.m "transient.runs" "count" (f "engine.transient.runs");
    H.m "transient.steps_accepted" "count" (f "engine.transient.steps_accepted");
    H.m "transient.steps_rejected" "count" (f "engine.transient.steps_rejected");
    H.m "ensemble.batches" "count" (f "engine.ensemble.batches");
    H.m "ensemble.lanes" "count" (f "engine.ensemble.lanes");
    H.m "ensemble.lane_failures" "count" (f "engine.ensemble.lane_failures");
    H.m "gc.minor_words_per_simulation" "words" (H.ratio words sims);
    H.m "border.searches" "count" (float_of_int searches);
    H.m "border.probes_per_search" "ratio" (H.ratio probes (float_of_int searches));
    H.m "border.failed_probe_share" "ratio"
      (H.ratio (f "core.border.skipped_samples") probes);
    H.m "border.search_ms" "ms" search_ms;
    H.m "ops.requests" "count" (f "dram.ops.requests");
    H.m "ops.simulations" "count" sims;
    H.m "ops.cache_hit_ratio" "ratio"
      (H.ratio (f "dram.ops.cache_hits") (f "dram.ops.requests"));
    H.m "ops.retry_attempts" "count" (f "dram.ops.retry_attempts");
    H.m "ops.failed_runs" "count" (f "dram.ops.failed_runs");
    H.m "ops.lane_fallbacks" "count" (f "dram.ops.lane_fallbacks");
    H.m "ops.cache_entries" "count" (float_of_int cache_entries);
  ]

(* the layers the served path adds: measured on the workload when it
   crosses them, otherwise priced on a fixed two-point probe *)
type served_layers = {
  hop_ms : float;
  runner_self_ms : float;
  reuse_share : float;
  classify_us : float;
  submit_ms : float;
  reused_point_us : float;
  daemon : (string * int) list;  (** daemon counter deltas, traced pass *)
  store_entries : int;
}

let served_metrics ?(counts = true) l =
  let c name = if counts then float_of_int (H.count l.daemon name) else 0.0 in
  [
    H.m "procpool.hop_ms" "ms" l.hop_ms;
    H.m "procpool.tasks" "count" (c "util.procpool.tasks");
    H.m "procpool.worker_restarts" "count" (c "util.procpool.worker_restarts");
    H.m "runner.self_ms" "ms" l.runner_self_ms;
    H.m "runner.reuse_share" "ratio" (if counts then l.reuse_share else 0.0);
    H.m "store.classify_us_per_point" "us" l.classify_us;
    H.m "store.entries" "count"
      (if counts then float_of_int l.store_entries else 0.0);
    H.m "protocol.submit_ms" "ms" l.submit_ms;
    H.m "protocol.reused_point_us" "us" l.reused_point_us;
    H.m "service.points_streamed" "count" (c "campaign.service.points_streamed");
    H.m "service.busy_rejections" "count" (c "campaign.service.busy_rejections");
    (* ROADMAP item 2: the daemon never sees its workers' engine work *)
    H.m "service.daemon_newton_iterations" "count"
      (c "engine.newton.iterations");
  ]

(* [covered] is the root-span time of the traced pass, read right after
   it; the self times cover every span of the run *)
let trace_metrics ~untraced ~traced ~covered =
  Printf.eprintf "perfbench: layer self times (all traced spans):\n";
  List.iter
    (fun (l, t) -> Printf.eprintf "  %-18s %10.4f s\n" l t)
    (H.Trace.self_times ());
  Printf.eprintf
    "  traced pass %.4f s, untraced %.4f s, in root spans %.4f s\n" traced
    untraced covered;
  [
    H.m "trace.overhead_s" "s" (traced -. untraced);
    H.m "trace.unattributed_share" "ratio"
      (H.ratio (traced -. covered) traced);
  ]

(* ------------------------------------------------------------------ *)
(* served plumbing                                                     *)
(* ------------------------------------------------------------------ *)

type corner = { vdd : float; temp : float; tcyc : float }

(* the stress lattice the served workloads draw from *)
let lattice =
  List.concat_map
    (fun vdd ->
      List.concat_map
        (fun temp ->
          List.map (fun tcyc -> { vdd; temp; tcyc }) [ 55e-9; 60e-9 ])
        [ -33.0; 27.0; 87.0 ])
    [ 2.1; 2.4; 2.7 ]

let manifest_text ~name ~defects corners =
  let stress c =
    Printf.sprintf "  (stress v%g_t%g_c%g (vdd %g) (temp %g) (tcyc %g))\n"
      c.vdd c.temp (c.tcyc *. 1e9) c.vdd c.temp c.tcyc
  in
  Printf.sprintf
    "(campaign\n\
    \  (name %s)\n\
    \  (defects %s)\n\
     %s  (detections (seq \"w1 w1 w0 r0\"))\n\
    \  (sim (jobs 1))\n\
    \  (border (strategy adaptive)))\n"
    name defects
    (String.concat "" (List.map stress corners))

type submission = {
  latency : float;
  points : int;
  answered : bool;
      (** a final tally with no failed point: not refused (Busy,
          Draining), no transport or server error *)
  failed_points : int;
  mismatches : int;
  reused_gaps : float list;
      (** arrival gaps before Reused frames, s; recorded while tracing *)
}

(* one closed-loop submission, every streamed point checked byte for
   byte against the in-process reference *)
let submit ~socket ~reference text =
  let points = ref 0 and failed = ref 0 and mism = ref 0 and gaps = ref [] in
  let t0 = H.now () in
  let last = ref t0 in
  let on_event = function
    | P.Point { descr; status; payload } ->
      let t = H.now () in
      incr points;
      (match status with
      | P.Failed ->
        incr failed;
        incr mism
      | P.Reused | P.Simulated | P.Deduped ->
        if Hashtbl.find_opt reference descr <> Some payload then incr mism);
      (* kept only while tracing: a timed run makes thousands of
         submissions, and holding every gap would grow the heap with
         the submission count *)
      if status = P.Reused && !H.Trace.on then gaps := (t -. !last) :: !gaps;
      last := t
    | _ -> ()
  in
  let answered =
    match
      H.span "protocol.submit" (fun () ->
          Svc.Client.submit ~on_event ~socket text)
    with
    | Ok o -> o.Svc.Client.failed = 0
    | Error _ -> false
    | exception (Svc.Client.Transport _ | Svc.Client.Busy _ | Svc.Client.Draining)
      ->
      false
  in
  {
    latency = H.now () -. t0;
    points = !points;
    answered;
    failed_points = !failed;
    mismatches = !mism;
    reused_gaps = !gaps;
  }

(* In-process [Runner.run] of the manifests in order against a fresh
   local store: the reference the served results must equal byte for
   byte, keyed like the daemon's point frames (stress labels name their
   corner, so a key means the same point in every manifest). With
   [spans] the point simulations go through an executor that is exactly
   the in-process [simulate_point], wrapped in spans, and
   classification is timed with [Runner.states]. *)
type local_run = {
  reference : (string, string) Hashtbl.t;
  local_failures : int;
  planned : int;
  reused : int;
  sim_spans : float list;  (** per simulate_point, s *)
  runner_self : float list;  (** per Runner.run, minus its executor spans, s *)
  classify : float list;  (** per point, s *)
}

let local_run ~dir ~spans manifests =
  H.rm_rf dir;
  let store = St.open_ ~name:"perfbench" dir in
  let reference = Hashtbl.create 256 in
  let failures = ref 0 and planned = ref 0 and reused = ref 0 in
  let sim_spans = ref [] and runner_self = ref [] and classify = ref [] in
  Fun.protect
    ~finally:(fun () -> St.close store)
    (fun () ->
      List.iter
        (fun text ->
          let m = Cp.Manifest.of_string text in
          let summary =
            if not spans then Cp.Runner.run ~jobs:1 ~store m
            else begin
              let t_states, states =
                H.timed (fun () ->
                    H.span "runner.states" (fun () -> Cp.Runner.states ~store m))
              in
              classify :=
                (t_states /. float_of_int (Int.max 1 (List.length states)))
                :: !classify;
              let inner = ref 0.0 in
              let executor ~hint p =
                let dt, r =
                  H.timed (fun () ->
                      H.span "runner.simulate_point" (fun () ->
                          Cp.Runner.simulate_point ~hint m p))
                in
                sim_spans := dt :: !sim_spans;
                inner := !inner +. dt;
                r
              in
              let dt, s =
                H.timed (fun () ->
                    H.span "runner.run" (fun () ->
                        Cp.Runner.run ~jobs:1 ~executor ~store m))
              in
              runner_self := (dt -. !inner) :: !runner_self;
              s
            end
          in
          failures := !failures + List.length summary.Cp.Runner.failures;
          planned := !planned + summary.Cp.Runner.planned;
          reused := !reused + summary.Cp.Runner.reused;
          List.iter
            (fun (p, r) ->
              Hashtbl.replace reference
                (Format.asprintf "%a" Cp.Plan.pp_point p)
                (Cp.Plan.encode_result r))
            summary.Cp.Runner.results)
        manifests);
  {
    reference;
    local_failures = !failures;
    planned = !planned;
    reused = !reused;
    sim_spans = !sim_spans;
    runner_self = !runner_self;
    classify = !classify;
  }

(* process hop: the sandbox executor's time for a point minus the
   in-process simulate_point time for the same point, ms. Each side
   runs the point once to warm its Ops cache, then three more times
   alternately; the hop is the difference of the medians, so it prices
   the pipe, the task codec and the worker's dispatch, not the solver. *)
let hop_ms pool text =
  let m = Cp.Manifest.of_string text in
  let exec = Cp.Sandbox.executor pool ~manifest_text:text m in
  let remote p () = H.span "procpool.exec" (fun () -> exec ~hint:[] p) in
  let local p () =
    H.span "runner.simulate_point" (fun () -> Cp.Runner.simulate_point m p)
  in
  let hops =
    List.map
      (fun p ->
        ignore (remote p ());
        ignore (local p ());
        let pairs =
          List.init 3 (fun _ ->
              (fst (H.timed (remote p)), fst (H.timed (local p))))
        in
        H.median (List.map fst pairs) -. H.median (List.map snd pairs))
      (take 4 (Cp.Plan.points m))
  in
  1e3 *. H.median hops

let bad s = (not s.answered) || s.failed_points > 0
let mismatches subs = List.fold_left (fun acc s -> acc + s.mismatches) 0 subs

type pass = { subs : submission list; wall : float }

(* Spawn a fresh daemon and store under [dir]. With [merge], the store
   is populated by merging that store directory into the daemon's (the
   [merge] verb); the set-up time runs from the spawn to its reply. *)
let setup_daemon ~a ~dir ~metrics ~merge =
  let d, spawn_s =
    H.spawn_daemon ~exe:a.exe ~dir ~store_dir:(Filename.concat dir "store")
      ~metrics
  in
  match merge with
  | None -> (d, spawn_s)
  | Some src -> (
    match H.timed (fun () -> Svc.Client.request ~socket:d.H.socket (P.Merge src)) with
    | t, P.Merged _ -> (d, spawn_s +. t)
    | _, _ ->
      H.stop_daemon d;
      failwith "daemon: merge refused"
    | exception e ->
      H.stop_daemon d;
      raise e)

let measure ~reference d manifests =
  let wall, subs =
    H.timed (fun () ->
        List.map (submit ~socket:d.H.socket ~reference) manifests)
  in
  { subs; wall }

type layer_run = {
  layers : served_layers;
  twin : local_run;
  delta : (string * int) list;
  words : float;
  cache_entries : int;
  untraced_wall : float;
  traced_wall : float;
  covered : float;
  layer_attempted : int;  (** submissions over both passes *)
  layer_mismatches : int;
  layer_bad : int;  (** bad submissions, plus local point failures *)
}

(* The traced run of a served workload: one untraced pass and one
   traced pass against a daemon with telemetry on (a fresh store each,
   merged from the reference store when [populate] is given), then the
   in-process twin of the same manifests for the layers the daemon
   cannot report, and the process hop on the first manifest's points. *)
let served_layers ~a ~pool ~name ~populate measured =
  let dir =
    Filename.concat work_root (Printf.sprintf "%s-%d" name (Unix.getpid ()))
  in
  Fun.protect ~finally:(fun () -> H.rm_rf dir) @@ fun () ->
  let all = populate @ measured in
  let ref_dir = Filename.concat dir "ref" in
  let plain = local_run ~dir:ref_dir ~spans:false all in
  let reference = plain.reference in
  let merge = if populate = [] then None else Some ref_dir in
  let pass ~traced sub =
    let d, _ =
      setup_daemon ~a ~dir:(Filename.concat dir sub) ~metrics:traced ~merge
    in
    Fun.protect
      ~finally:(fun () -> H.stop_daemon d)
      (fun () ->
        let before = H.Trace.covered () in
        H.Trace.on := traced;
        let p = measure ~reference d measured in
        let covered = H.Trace.covered () -. before in
        let counters, records =
          if traced then (H.daemon_counters d, H.daemon_records d) else ([], 0)
        in
        (p, counters, records, covered))
  in
  let untraced, _, _, _ = pass ~traced:false "u" in
  let traced, counters, records, covered = pass ~traced:true "t" in
  let (twin, cache_entries), delta, words =
    H.with_counters (fun () ->
        O.Cache.clear O.Cache.default;
        O.Cache.reset_stats O.Cache.default;
        let twin = local_run ~dir:(Filename.concat dir "twin") ~spans:true all in
        (twin, (O.Cache.stats O.Cache.default).O.entries))
  in
  let hop = hop_ms pool (List.hd all) in
  H.Trace.on := false;
  (* the twin's executor path must reproduce the plain in-process run *)
  let twin_diff =
    Hashtbl.fold
      (fun k v acc ->
        if Hashtbl.find_opt twin.reference k = Some v then acc else acc + 1)
      reference 0
  in
  let subs = untraced.subs @ traced.subs in
  {
    layer_attempted = List.length subs;
    layers =
      {
        hop_ms = hop;
        runner_self_ms = 1e3 *. H.median twin.runner_self;
        reuse_share =
          H.ratio (float_of_int twin.reused) (float_of_int twin.planned);
        classify_us = 1e6 *. H.median twin.classify;
        submit_ms = 1e3 *. H.median (List.map (fun s -> s.latency) traced.subs);
        reused_point_us =
          1e6 *. H.median (List.concat_map (fun s -> s.reused_gaps) traced.subs);
        daemon = counters;
        store_entries = records;
      };
    twin;
    delta;
    words;
    cache_entries;
    untraced_wall = untraced.wall;
    traced_wall = traced.wall;
    covered;
    layer_mismatches = mismatches subs + twin_diff;
    layer_bad =
      List.length (List.filter bad subs) + plain.local_failures
      + twin.local_failures;
  }

(* ------------------------------------------------------------------ *)
(* workload: table1                                                    *)
(* ------------------------------------------------------------------ *)

(* O2 and O3 are electrically identical to O1 and dropped, as the
   paper-figure harness does, to keep one table inside the run *)
let table1_rows =
  List.concat_map
    (fun (e : D.entry) -> List.map (fun p -> (e, p)) [ D.True_bl; D.Comp_bl ])
    (List.filter (fun (e : D.entry) -> e.D.id <> "O2" && e.D.id <> "O3")
       D.catalog)

let row_key (e : D.entry) p =
  e.D.id ^ " " ^ Format.asprintf "%a" D.pp_placement p

let words_of line =
  String.split_on_char ' ' line |> List.filter (fun w -> w <> "")

(* the rendered row lines of EXPERIMENTS.md's Table 1, keyed by
   "<defect> <placement>" *)
let golden =
  lazy
    (H.read_file "perfbench/table1_golden.txt"
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match words_of line with
           | id :: place :: _ -> Some (id ^ " " ^ place, words_of line)
           | _ -> None))

let row_matches e p (t : C.Table1.t) =
  t.C.Table1.failures = []
  &&
  match String.split_on_char '\n' (C.Table1.render t) with
  | _title :: _header :: _rule :: line :: _ ->
    List.assoc_opt (row_key e p) (Lazy.force golden) = Some (words_of line)
  | _ -> false

(* border searches one Table 1 row made: every candidate detection at
   the nominal and at the stressed SC, plus the BR comparisons of the
   axis probes *)
let row_searches (t : C.Table1.t) =
  List.fold_left
    (fun acc (row : C.Table1.row) ->
      let e = row.C.Table1.evaluation in
      let cands allow_pause =
        List.length
          (C.Sc_eval.candidate_detections ~allow_pause
             ~placement:row.C.Table1.placement e.C.Sc_eval.kind)
      in
      acc + cands false + cands true
      + List.fold_left
          (fun acc p -> acc + List.length p.C.Stressor.br_at_extremes)
          0 e.C.Sc_eval.probes)
    0 t.C.Table1.rows

type row_run = { row_s : float; ok : bool; failed_row : bool; searches : int }

(* set-up of an in-process table: a fresh cache and the first, cold
   operation sequence on the column *)
let table1_setup () =
  fst
    (H.timed (fun () ->
         let cache = O.Cache.create () in
         ignore
           (O.run ~cache ~stress:S.nominal ~defect:open_defect ~vc_init:0.0
              [ O.W1; O.W1; O.W0; O.R ])))

(* One Table 1 call per row, each on a fresh Ops cache after a full
   major collection, so a row's time does not depend on the garbage the
   rows the seed put before it left behind. With [setups], one set-up
   sample is taken before each row, which spreads the samples over the
   run like the rows themselves. *)
let table1_pass ?setups order =
  List.map
    (fun ((e : D.entry), p) ->
      O.Cache.clear O.Cache.default;
      O.Cache.reset_stats O.Cache.default;
      Option.iter (fun acc -> acc := table1_setup () :: !acc) setups;
      Gc.full_major ();
      let row_s, t =
        H.timed (fun () ->
            H.span "table1.generate" ~attrs:[ ("row", row_key e p) ] (fun () ->
                C.Table1.generate ~jobs:1 ~entries:[ e ] ~placements:[ p ] ()))
      in
      {
        row_s;
        ok = row_matches e p t;
        failed_row = t.C.Table1.failures <> [];
        searches = row_searches t;
      })
    order

(* a table's wall time: its rows' generate calls, without what runs
   between them *)
let timed_table ?setups order =
  let rows = table1_pass ?setups order in
  (H.sum (List.map (fun r -> r.row_s) rows), rows)

(* the two stored points table1's traced run prices the served layers
   on, since the workload itself crosses none of them *)
let probe_manifest i =
  manifest_text ~name:(Printf.sprintf "probe-%d" i) ~defects:"(Sg true) (Sg comp)"
    [ { vdd = 2.4; temp = 27.0; tcyc = 60e-9 } ]

let table1 a =
  let order = shuffle (Random.State.make [| a.seed |]) table1_rows in
  let count_if p rows = List.length (List.filter p rows) in
  if not a.trace then begin
    let setups = ref [] in
    let tables =
      repeat_units ~seconds:a.seconds (fun () -> timed_table ~setups order)
    in
    let rows = List.concat_map snd tables in
    let walls = List.map fst tables in
    let lat = List.map (fun r -> r.row_s) rows in
    let failed = count_if (fun r -> r.failed_row) rows in
    let mism = count_if (fun r -> not r.ok) rows in
    Printf.eprintf "perfbench: table1: %d table(s), %d row(s) off the golden\n"
      (List.length tables) mism;
    ( mism = 0 && failed = 0,
      List.length rows,
      failed,
      [
        H.m "setup_s" "s" (H.median !setups);
        H.m "wall_s" "s" (H.median walls);
        H.m "points_per_s" "1/s"
          (float_of_int (List.length rows) /. H.sum walls);
        H.m "latency_p50_s" "s" (H.quantile 0.5 lat);
        H.m "latency_p90_s" "s" (H.quantile 0.9 lat);
        H.m "peak_rss_mb" "MB" (H.self_hwm_mb ());
      ] )
  end
  else begin
    let pool = Pp.create ~workers:1 ~worker:Cp.Sandbox.worker () in
    Fun.protect ~finally:(fun () -> Pp.shutdown pool) @@ fun () ->
    let untraced, _ = timed_table order in
    H.Trace.on := true;
    let (traced, rows), delta, words =
      H.with_counters (fun () -> timed_table order)
    in
    H.Trace.on := false;
    let covered = H.Trace.covered () in
    let cache_entries = (O.Cache.stats O.Cache.default).O.entries in
    let searches = List.fold_left (fun acc r -> acc + r.searches) 0 rows in
    let probe =
      served_layers ~a ~pool ~name:"probe" ~populate:[ probe_manifest 0 ]
        (List.init 20 (fun i -> probe_manifest (i + 1)))
    in
    let mism = count_if (fun r -> not r.ok) rows + probe.layer_mismatches in
    let failed = count_if (fun r -> r.failed_row) rows in
    ( mism = 0 && failed = 0 && probe.layer_bad = 0,
      List.length rows,
      failed,
      engine_metrics ~delta ~words ~searches
        ~search_ms:(1e3 *. traced /. float_of_int (Int.max 1 searches))
        ~cache_entries
      @ [
          H.m "sparse_lu.factor_us" "us" (sparse_lu_factor_us ());
          H.m "newton.iteration_us" "us" (newton_iteration_us ());
          H.m "engine.twin_run" "flag" 0.0;
        ]
      @ served_metrics ~counts:false probe.layers
      @ trace_metrics ~untraced ~traced ~covered )
  end

(* ------------------------------------------------------------------ *)
(* workloads: sweep-served and replay-served                           *)
(* ------------------------------------------------------------------ *)

(* sweep-served: a study walks the whole lattice over open, short and
   bridge defects; each submission adds one new corner and repeats one
   corner an earlier submission already stored *)
let sweep_manifests seed =
  let rng = Random.State.make [| seed |] in
  let order = Array.of_list (shuffle rng lattice) in
  List.init (Array.length order) (fun i ->
      let corners =
        if i = 0 then [ order.(0) ]
        else [ order.(Random.State.int rng i); order.(i) ]
      in
      manifest_text ~name:(Printf.sprintf "sweep-%d" i)
        ~defects:"(O1 true) (Sg true) (B1 true)" corners)

(* replay-served: the whole lattice over short and bridge defects is
   stored during set-up; each submission then asks for a seeded subset
   of twelve of its corners, all already stored *)
let replay_defects = "(Sg true) (Sg comp) (B2 true) (B2 comp)"

let replay_populate =
  manifest_text ~name:"replay-populate" ~defects:replay_defects lattice

let replay_manifest rng i =
  manifest_text ~name:(Printf.sprintf "replay-%d" i) ~defects:replay_defects
    (take 12 (shuffle rng lattice))

(* submissions per replay unit *)
let replay_block = 100

let served a =
  let sweep = a.workload = "sweep-served" in
  let rng = Random.State.make [| a.seed |] in
  let populate = if sweep then [] else [ replay_populate ] in
  let block () =
    if sweep then sweep_manifests a.seed
    else List.init replay_block (replay_manifest rng)
  in
  let first = block () in
  if a.trace then begin
    let pool = Pp.create ~workers:1 ~worker:Cp.Sandbox.worker () in
    Fun.protect ~finally:(fun () -> Pp.shutdown pool) @@ fun () ->
    let r = served_layers ~a ~pool ~name:a.workload ~populate first in
    ( r.layer_mismatches = 0 && r.layer_bad = 0,
      r.layer_attempted,
      Int.min r.layer_attempted r.layer_bad,
      engine_metrics ~delta:r.delta ~words:r.words
        ~searches:(List.length r.twin.sim_spans)
        ~search_ms:(1e3 *. H.median r.twin.sim_spans)
        ~cache_entries:r.cache_entries
      @ [
          H.m "sparse_lu.factor_us" "us" (sparse_lu_factor_us ());
          H.m "newton.iteration_us" "us" (newton_iteration_us ());
          H.m "engine.twin_run" "flag" 1.0;
        ]
      @ served_metrics r.layers
      @ trace_metrics ~untraced:r.untraced_wall ~traced:r.traced_wall
          ~covered:r.covered )
  end
  else begin
    let dir =
      Filename.concat work_root
        (Printf.sprintf "%s-%d" a.workload (Unix.getpid ()))
    in
    Fun.protect ~finally:(fun () -> H.rm_rf dir) @@ fun () ->
    (* the reference: for a sweep the study itself, for a replay the
       populated store every replayed point comes from *)
    let ref_dir = Filename.concat dir "ref" in
    let local =
      local_run ~dir:ref_dir ~spans:false (if sweep then first else populate)
    in
    let reference = local.reference in
    let merge = if sweep then None else Some ref_dir in
    let n = ref 0 and setups = ref [] and rss = ref 0.0 in
    let setup () =
      incr n;
      let d, s =
        setup_daemon ~a ~dir:(Filename.concat dir (string_of_int !n))
          ~metrics:false ~merge
      in
      setups := s :: !setups;
      d
    in
    let finish d =
      rss := Float.max !rss (H.tree_hwm_mb d.H.pid);
      H.stop_daemon d
    in
    let with_daemon d f = Fun.protect ~finally:(fun () -> finish d) f in
    (* nine set-up samples in all, spread over the run like the units:
       after a unit, one more whenever another ninth of the run passed *)
    let t0 = H.now () in
    let spaced_setup () =
      let k = List.length !setups in
      if k < 9 && H.now () -. t0 >= a.seconds *. float_of_int k /. 9.0 then
        finish (setup ())
    in
    let unit f () =
      let v = f () in
      spaced_setup ();
      v
    in
    let units =
      if sweep then
        (* one study per unit, each on a fresh daemon and store *)
        repeat_units ~seconds:a.seconds
          (unit (fun () ->
               let d = setup () in
               with_daemon d (fun () -> measure ~reference d first)))
      else begin
        (* one daemon serves every block of the run *)
        let d = setup () in
        let next = ref (Some first) in
        with_daemon d (fun () ->
            repeat_units ~seconds:a.seconds
              (unit (fun () ->
                   let b =
                     match !next with
                     | Some b ->
                       next := None;
                       b
                     | None -> block ()
                   in
                   measure ~reference d b)))
      end
    in
    while List.length !setups < 9 do
      finish (setup ())
    done;
    let subs = List.concat_map (fun u -> u.subs) units in
    let walls = List.map (fun u -> u.wall) units in
    let points_of subs = List.fold_left (fun acc s -> acc + s.points) 0 subs in
    let points = points_of subs in
    (* per-unit figures, then their median: a few slow seconds on a
       shared host move one unit, not the run's result *)
    let per_unit f = H.median (List.map f units) in
    let unit_quantile q u = H.quantile q (List.map (fun s -> s.latency) u.subs) in
    let failed = List.length (List.filter bad subs) in
    let mism = mismatches subs in
    Printf.eprintf
      "perfbench: %s: %d unit(s), %d submission(s), %d point(s), %d \
       mismatch(es), %d failed\n"
      a.workload (List.length units) (List.length subs) points mism failed;
    ( mism = 0 && failed = 0 && local.local_failures = 0,
      List.length subs,
      failed,
      [
        H.m "setup_s" "s" (H.median !setups);
        H.m "wall_s" "s" (H.median walls);
        H.m "points_per_s" "1/s"
          (per_unit (fun u -> float_of_int (points_of u.subs) /. u.wall));
        H.m "latency_p50_s" "s" (per_unit (unit_quantile 0.5));
        H.m "latency_p90_s" "s" (per_unit (unit_quantile 0.9));
        H.m "peak_rss_mb" "MB" (H.self_hwm_mb () +. !rss);
      ] )
  end

(* ------------------------------------------------------------------ *)
(* command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage =
  "bench.exe --workload table1|sweep-served|replay-served --seed N \
   --seconds S --trace 0|1 --exe DRAMSTRESS"

let parse argv =
  let rec go a = function
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { a with seconds = float_of_string v } rest
    | "--trace" :: v :: rest -> go { a with trace = v = "1" } rest
    | "--exe" :: v :: rest -> go { a with exe = v } rest
    | [] -> a
    | x :: _ -> failwith ("unknown argument " ^ x ^ "\nusage: " ^ usage)
  in
  go
    { workload = ""; seed = 1; seconds = 20.0; trace = false; exe = "" }
    (List.tl (Array.to_list argv))

let () =
  match parse Sys.argv with
  | exception (Failure msg | Invalid_argument msg) ->
    prerr_endline msg;
    exit 2
  | a ->
    let run =
      match a.workload with
      | "table1" -> table1
      | "sweep-served" | "replay-served" -> served
      | w ->
        Printf.eprintf "unknown workload %s\nusage: %s\n" w usage;
        exit 2
    in
    H.mkdir_p work_root;
    let correct, attempted, failed, metrics = run a in
    if a.trace then begin
      let path =
        Filename.concat work_root
          (Printf.sprintf "trace-%s-%d.jsonl" a.workload a.seed)
      in
      H.Trace.write_jsonl path;
      Printf.eprintf "perfbench: spans written to %s\n" path
    end;
    print_endline (H.result_line ~correct ~attempted ~failed metrics)

(* Golden hex-float waveform traces: the engine's bit-exact oracle.

   Every case below runs one operation sequence through [Ops.run] (the
   scalar integrator) or [Ops.run_batch] (the ensemble, two lanes) and
   compares every sampled time, every probe value and the final node
   voltages against a checked-in trace written with [%h], bit for bit.
   Any change to the floating-point arithmetic of the engine — its
   evaluation order included — shows up here as the first differing
   sample.

   The "prefix resume" group runs every case again on a cache that has
   already simulated each proper prefix of the sequence, so the final
   run resumes its lanes from the cached op-boundary states; it must
   reproduce the same checked-in trace.

   The "stale pivot" group pins the sparse LU's reanalysis path to the
   same oracle: its case must reanalyse mid-run (densify the
   workspace's values, re-pick the pivot order, recompile the refactor
   program) and still match its trace.

   Regenerate (only when a waveform change is intended, and say so):
     dune exec test/test_golden_traces.exe -- --regen test/golden/traces *)

module D = Dramstress_defect.Defect
module O = Dramstress_dram.Ops
module S = Dramstress_dram.Stress
module Sc = Dramstress_dram.Sim_config
module E = Dramstress_engine
module T = Dramstress_engine.Transient
module Slu = Dramstress_util.Sparse_lu

let golden_dir = Filename.concat "golden" "traces"

(* A coarse grid keeps the checked-in traces small; the kernel runs the
   same code at any resolution, and the coarse steps cost more Newton
   iterations per solve, not fewer. *)
let steps_per_cycle = 40

let hot_low = S.with_temp_c (S.with_vdd S.nominal 2.1) 87.0

let corners = [ ("nominal", S.nominal); ("hot-low", hot_low) ]

(* the second sequence crosses a retention pause: a segment of its own
   step size between two active segments *)
let sequences = [ ("wwr", "w1 w0 r"); ("pause", "w1 p2e-7 r") ]

let defects =
  [ ("o1", D.v (D.Open_cell D.At_bitline_contact) D.True_bl 200e3);
    ("sg", D.v D.Short_to_gnd D.True_bl 600e3);
    ("b1", D.v D.Bridge_to_paired_bl D.True_bl 1e6);
    ("b2", D.v D.Bridge_to_neighbour D.True_bl 1e6) ]

(* [traces ~warm ()]: with [warm], on a cache that first ran every
   proper prefix of the sequence *)
type case = { name : string; traces : warm:bool -> unit -> T.result list }

let config ?(sim = E.Options.default) () = Sc.v ~sim ~steps_per_cycle ()

(* runs [full] on a fresh cache, after every proper prefix of it when
   [warm], checking that the final run resumed [lanes] lanes *)
let with_prefixes ~warm ~lanes full seq =
  let cache = O.Cache.create ~enabled:warm () in
  let ops = O.parse_seq seq in
  if warm then
    List.iteri
      (fun k _ ->
        if k > 0 then ignore (full cache (List.filteri (fun i _ -> i < k) ops)))
      ops;
  let resumes = (O.prefix_stats ()).O.resumes in
  let traces = full cache ops in
  let resumed = (O.prefix_stats ()).O.resumes - resumes in
  if resumed <> (if warm then lanes else 0) then
    failwith (Printf.sprintf "%d of %d lanes resumed" resumed lanes);
  traces

let scalar ?sim ~stress ~defect seq ~warm () =
  with_prefixes ~warm ~lanes:1
    (fun cache ops ->
      let oc =
        O.run ~config:(config ?sim ()) ~cache ~stress ~defect ~vc_init:0.0 ops
      in
      [ oc.O.trace ])
    seq

(* two lanes an octave and a half apart in resistance, so the lanes take
   different Newton paths through one shared assembly *)
let batch ~stress ~defect seq ~warm () =
  let lanes =
    [ { O.defect = Some defect; vc_init = 0.0 };
      { O.defect = Some (D.with_r defect (3.0 *. defect.D.r)); vc_init = 0.0 } ]
  in
  with_prefixes ~warm ~lanes:2
    (fun cache ops ->
      let fallbacks = O.lane_fallbacks () in
      let results = O.run_batch ~config:(config ()) ~cache ~stress ~lanes ops in
      (* a lane that fell back to the scalar path would make this case a
         second scalar trace instead of an ensemble one *)
      if O.lane_fallbacks () <> fallbacks then
        failwith "golden batch: a lane fell back to the scalar path";
      List.map
        (function
          | Ok oc -> oc.O.trace
          | Error e -> failwith ("golden batch: " ^ Printexc.to_string e))
        results)
    seq

let cases =
  List.concat_map
    (fun (dname, defect) ->
      List.concat_map
        (fun (cname, stress) ->
          List.concat_map
            (fun (sname, seq) ->
              let stem = String.concat "-" [ dname; cname; sname ] in
              [ { name = stem ^ "-scalar"; traces = scalar ~stress ~defect seq };
                { name = stem ^ "-batch"; traces = batch ~stress ~defect seq } ])
            sequences)
        corners)
    defects
  @ [ { name = "o1-nominal-wwr-trapezoidal";
        traces =
          scalar
            ~sim:{ E.Options.default with integrator = E.Options.Trapezoidal }
            ~stress:S.nominal ~defect:(List.assoc "o1" defects) "w1 w0 r" } ]

(* One line per vector: [<label> <v0> <v1> ...], every value in [%h].
   Labels: [times], [probe <lane> <name>], [final_v <lane>]. *)
let lines_of traces =
  let row label values =
    String.concat " "
      (label :: Array.to_list (Array.map (Printf.sprintf "%h") values))
  in
  let lane_lines lane (r : T.result) =
    Array.to_list
      (Array.mapi
         (fun i name ->
           row (Printf.sprintf "probe %d %s" lane name) r.T.probe_values.(i))
         r.T.probe_names)
    @ [ row (Printf.sprintf "final_v %d" lane) r.T.final_v ]
  in
  match traces with
  | [] -> []
  | first :: _ ->
    row "times" first.T.times :: List.concat (List.mapi lane_lines traces)

let path dir case = Filename.concat dir (case.name ^ ".trace")

let regen dir =
  List.iter
    (fun case ->
      Out_channel.with_open_text (path dir case) (fun oc ->
          List.iter
            (fun l ->
              output_string oc l;
              output_char oc '\n')
            (lines_of (case.traces ~warm:false ()))))
    cases

(* split a line into its label words and its hex-float values *)
let parse line =
  let words = String.split_on_char ' ' line in
  let is_value w =
    String.starts_with ~prefix:"0x" w || String.starts_with ~prefix:"-0x" w
  in
  let label = List.filter (fun w -> not (is_value w)) words in
  let values = List.filter is_value words in
  (String.concat " " label, Array.of_list (List.map float_of_string values))

let check ~warm case () =
  let expected =
    In_channel.with_open_text (path golden_dir case) In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.map parse
  in
  let actual = List.map parse (lines_of (case.traces ~warm ())) in
  Alcotest.(check (list string))
    "same vectors" (List.map fst expected) (List.map fst actual);
  List.iter2
    (fun (label, want) (_, got) ->
      Alcotest.(check int) (label ^ " length") (Array.length want)
        (Array.length got);
      Array.iteri
        (fun k w ->
          if Int64.bits_of_float w <> Int64.bits_of_float got.(k) then
            Alcotest.failf "%s: sample %d is %h, golden %h" label k got.(k) w)
        want)
    expected actual

(* a case whose run goes through [Sparse_lu]'s stale-pivot reanalysis *)
let stale_pivot_case = "o1-nominal-wwr-scalar"

let check_reanalyses case () =
  let reanalyses () = (Slu.stats ()).Slu.reanalyses in
  let before = reanalyses () in
  check ~warm:false case ();
  if reanalyses () = before then
    Alcotest.failf "%s no longer reanalyses its sparse LU mid-run" case.name

let () =
  match Sys.argv with
  | [| _; "--regen"; dir |] -> regen dir
  | _ ->
    let group name ~warm =
      ( name,
        List.map
          (fun case -> Alcotest.test_case case.name `Quick (check ~warm case))
          cases )
    in
    Alcotest.run "golden_traces"
      [ group "bitwise" ~warm:false;
        group "prefix resume" ~warm:true;
        ( "stale pivot",
          let case = List.find (fun c -> c.name = stale_pivot_case) cases in
          [ Alcotest.test_case case.name `Quick (check_reanalyses case) ] ) ]

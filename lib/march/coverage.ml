module D = Dramstress_defect.Defect

type case = { label : string; fault : Memsim.fault }

let standard_faults =
  [
    { label = "SA0"; fault = Memsim.Stuck_at 0 };
    { label = "SA1"; fault = Memsim.Stuck_at 1 };
    { label = "TF0"; fault = Memsim.Transition 0 };
    { label = "TF1"; fault = Memsim.Transition 1 };
    { label = "CFin"; fault = Memsim.Coupling_inv 0 };
    { label = "CFid<w1;1>"; fault = Memsim.Coupling_idem (0, 1) };
  ]

let electrical_faults ?config ?(rs = [ 50e3; 200e3; 500e3; 1e6 ]) ~stress ~kind
    ~placement () =
  List.map
    (fun r ->
      let defect = D.v kind placement r in
      let weak = Memsim.Weak.of_electrical ?config ~stress ~defect () in
      {
        label =
          Format.asprintf "%a@%a" D.pp_kind kind Dramstress_util.Units.pp_si r;
        fault = Memsim.Weak_cell weak;
      })
    rs

type result = {
  test : March.t;
  detected : (case * bool) list;
  coverage : float;
}

let evaluate ?(size = 16) test cases =
  let detected =
    List.map
      (fun case -> (case, Memsim.detects ~size ~fault:case.fault test))
      cases
  in
  let hits = List.length (List.filter snd detected) in
  {
    test;
    detected;
    coverage = float_of_int hits /. float_of_int (List.length cases);
  }

let compare_tests ?size tests cases =
  List.map (fun t -> evaluate ?size t cases) tests

let render results =
  match results with
  | [] -> "(no results)\n"
  | first :: _ ->
    let buf = Buffer.create 1024 in
    let labels = List.map (fun (c, _) -> c.label) first.detected in
    Buffer.add_string buf (Printf.sprintf "%-28s" "test \\ fault");
    List.iter (fun l -> Buffer.add_string buf (Printf.sprintf " %-12s" l)) labels;
    Buffer.add_string buf " coverage\n";
    List.iter
      (fun r ->
        Buffer.add_string buf (Printf.sprintf "%-28s" r.test.March.name);
        List.iter
          (fun (_, hit) ->
            Buffer.add_string buf
              (Printf.sprintf " %-12s" (if hit then "detect" else "-")))
          r.detected;
        Buffer.add_string buf (Printf.sprintf " %5.1f%%\n" (100.0 *. r.coverage)))
      results;
    Buffer.contents buf

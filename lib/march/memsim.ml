module O = Dramstress_dram.Ops
module S = Dramstress_dram.Stress
module C = Dramstress_core

module Weak = struct
  type t = {
    vdd : float;
    vsa : float;
    alpha_w0 : float;
    alpha_w1 : float;
    alpha_restore : float;
    leak_target : float;
    leak_tau : float;
  }

  let ideal ~vdd =
    {
      vdd;
      vsa = vdd /. 2.0;
      alpha_w0 = 20.0;
      alpha_w1 = 20.0;
      alpha_restore = 20.0;
      leak_target = vdd /. 2.0;
      leak_tau = 1.0;
    }

  (* fit an exponential-approach rate from start, end and target values *)
  let rate ~from ~reached ~target =
    let num = Float.abs (from -. target) in
    let den = Float.abs (reached -. target) in
    if den <= 1e-6 then 20.0
    else if num <= den then 0.0
    else Float.min 20.0 (log (num /. den))

  let of_electrical ?config ~stress ~defect () =
    let vdd = stress.S.vdd in
    let run ~vc_init ops =
      let outcome = O.run ?config ~stress ~defect ~vc_init ops in
      outcome.O.results
    in
    let end_vc results = (List.nth results (List.length results - 1)).O.vc_end in
    (* physical writes: on the complementary line logical ops invert, so
       drive with the op that targets the wanted physical level *)
    let comp =
      defect.Dramstress_defect.Defect.placement = Dramstress_defect.Defect.Comp_bl
    in
    let w_low = if comp then O.W1 else O.W0 in
    let w_high = if comp then O.W0 else O.W1 in
    let vc_after_w0 = end_vc (run ~vc_init:vdd [ w_low ]) in
    let vc_after_w1 = end_vc (run ~vc_init:0.0 [ w_high ]) in
    let vsa =
      match C.Plane.vsa ?config ~stress ~defect () with
      | C.Plane.Vsa v -> v
      | C.Plane.Reads_all_1 -> 0.0
      | C.Plane.Reads_all_0 -> vdd
    in
    (* retention drift over 1 ms from mid-level *)
    let mid = vdd /. 2.0 in
    let drift = end_vc (run ~vc_init:mid [ O.Pause 1e-3 ]) in
    let leak_target, leak_tau =
      let d = drift -. mid in
      if Float.abs d < 1e-3 then (mid, 1e6)
      else begin
        (* assume drift towards a rail; estimate tau from one sample *)
        let target = if d > 0.0 then vdd else 0.0 in
        let frac = Float.abs d /. Float.abs (target -. mid) in
        let frac = Float.min 0.999 frac in
        (target, -1.0e-3 /. log1p (-.frac))
      end
    in
    {
      vdd;
      vsa;
      alpha_w0 = rate ~from:vdd ~reached:vc_after_w0 ~target:0.0;
      alpha_w1 = rate ~from:0.0 ~reached:vc_after_w1 ~target:vdd;
      alpha_restore = 6.0;
      leak_target;
      leak_tau;
    }
end

type fault =
  | Good
  | Stuck_at of int
  | Transition of int
  | Coupling_inv of int
  | Coupling_idem of int * int
  | Weak_cell of Weak.t

type cell = { mutable bit : int; mutable analog : float; fault : fault }

type t = { cells : cell array }

let create ~size ?(faults = []) () =
  if size <= 0 then invalid_arg "Memsim.create: size <= 0";
  let cells =
    Array.init size (fun _ -> { bit = 0; analog = 0.0; fault = Good })
  in
  List.iter
    (fun (addr, fault) ->
      if addr < 0 || addr >= size then
        invalid_arg "Memsim.create: fault address out of range";
      (match fault with
      | Coupling_inv a | Coupling_idem (a, _) ->
        if a < 0 || a >= size then
          invalid_arg "Memsim.create: aggressor address out of range"
      | Good | Stuck_at _ | Transition _ | Weak_cell _ -> ());
      cells.(addr) <-
        {
          bit = (match fault with Stuck_at b -> b | _ -> 0);
          analog = (match fault with Weak_cell w -> ignore w; 0.0 | _ -> 0.0);
          fault;
        })
    faults;
  { cells }

let size mem = Array.length mem.cells

let check_addr mem addr =
  if addr < 0 || addr >= size mem then invalid_arg "Memsim: address out of range"

(* apply coupling effects triggered by a write on [aggr] *)
let trigger_couplings mem aggr written =
  Array.iter
    (fun cell ->
      match cell.fault with
      | Coupling_inv a when a = aggr -> cell.bit <- 1 - cell.bit
      | Coupling_idem (a, v) when a = aggr && written = v -> cell.bit <- v
      | Good | Stuck_at _ | Transition _ | Coupling_inv _
      | Coupling_idem _ | Weak_cell _ ->
        ())
    mem.cells

let write mem addr bit =
  check_addr mem addr;
  if bit <> 0 && bit <> 1 then invalid_arg "Memsim.write: bit not 0/1";
  let cell = mem.cells.(addr) in
  (match cell.fault with
  | Good | Coupling_inv _ | Coupling_idem _ -> cell.bit <- bit
  | Stuck_at _ -> ()
  | Transition b -> if bit <> b || cell.bit = bit then cell.bit <- bit
  | Weak_cell w ->
    let target, alpha =
      if bit = 0 then (0.0, w.Weak.alpha_w0) else (w.Weak.vdd, w.Weak.alpha_w1)
    in
    cell.analog <- target +. ((cell.analog -. target) *. exp (-.alpha));
    cell.bit <- bit);
  trigger_couplings mem addr bit

let read mem addr =
  check_addr mem addr;
  let cell = mem.cells.(addr) in
  match cell.fault with
  | Good | Coupling_inv _ | Coupling_idem _ | Transition _ -> cell.bit
  | Stuck_at b -> b
  | Weak_cell w ->
    let sensed = if cell.analog > w.Weak.vsa then 1 else 0 in
    let rail = if sensed = 1 then w.Weak.vdd else 0.0 in
    cell.analog <-
      rail +. ((cell.analog -. rail) *. exp (-.w.Weak.alpha_restore));
    cell.bit <- sensed;
    sensed

let wait mem dt =
  if dt < 0.0 then invalid_arg "Memsim.wait: negative time";
  Array.iter
    (fun cell ->
      match cell.fault with
      | Weak_cell w ->
        let f = exp (-.dt /. w.Weak.leak_tau) in
        cell.analog <-
          w.Weak.leak_target +. ((cell.analog -. w.Weak.leak_target) *. f)
      | Good | Stuck_at _ | Transition _ | Coupling_inv _ | Coupling_idem _
        ->
        ())
    mem.cells

type failure = {
  addr : int;
  element : int;
  op : int;
  expected : int;
  got : int;
}

let run_march mem test =
  let failures = ref [] in
  let n = size mem in
  List.iteri
    (fun ei (element : March.element) ->
      let addrs =
        match element.March.order with
        | March.Up | March.Either -> List.init n Fun.id
        | March.Down -> List.init n (fun i -> n - 1 - i)
      in
      List.iter
        (fun addr ->
          List.iteri
            (fun oi op ->
              match op with
              | March.Mw b -> write mem addr b
              | March.Mdel d -> wait mem d
              | March.Mham _ ->
                (* aggressor word-line pulses don't touch the victim's
                   column in the behavioural model; the electrical layer
                   (Ops.Ham) carries the coupling disturb *)
                ()
              | March.Mr expected ->
                let got = read mem addr in
                if got <> expected then
                  failures :=
                    { addr; element = ei; op = oi; expected; got }
                    :: !failures)
            element.March.ops)
        addrs)
    test.March.elements;
  List.rev !failures

let detects ~size:n ~fault test =
  let victim = n / 2 in
  let mem = create ~size:n ~faults:[ (victim, fault) ] () in
  run_march mem test <> []

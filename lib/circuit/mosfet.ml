type polarity = Nmos | Pmos

type model = {
  name : string;
  polarity : polarity;
  vt0 : float;
  kp : float;
  lambda : float;
  vt_tc : float;
  mu_exp : float;
  n_sub : float;
  t_ref : float;
}

let make polarity ?(lambda = 0.05) ?(vt_tc = 2e-3) ?(mu_exp = 1.5)
    ?(n_sub = 1.4) ?(t_ref = 300.15) ~name ~vt0 ~kp () =
  if vt0 < 0.0 || kp <= 0.0 then
    invalid_arg "Mosfet: vt0 and kp must be positive magnitudes";
  { name; polarity; vt0; kp; lambda; vt_tc; mu_exp; n_sub; t_ref }

let nmos ?lambda ?vt_tc ?mu_exp ?n_sub ?t_ref ~name ~vt0 ~kp () =
  make Nmos ?lambda ?vt_tc ?mu_exp ?n_sub ?t_ref ~name ~vt0 ~kp ()

let pmos ?lambda ?vt_tc ?mu_exp ?n_sub ?t_ref ~name ~vt0 ~kp () =
  make Pmos ?lambda ?vt_tc ?mu_exp ?n_sub ?t_ref ~name ~vt0 ~kp ()

let vth_mag m ~temp = m.vt0 -. (m.vt_tc *. (temp -. m.t_ref))

let vth m ~temp =
  let v = vth_mag m ~temp in
  match m.polarity with Nmos -> v | Pmos -> -.v

let kp_t m ~temp = m.kp *. ((temp /. m.t_ref) ** -.m.mu_exp)

type eval = { id : float; gm : float; gds : float }

(* Everything in the drain-current expression that depends on the
   temperature but not on the bias: computed once per model and
   temperature, read by every evaluation. An all-float record, so the
   fields are stored flat and read without boxing. *)
type terms = {
  sgn : float;
  vth_t : float;
  n : float;
  vt_th : float;
  two_vt : float;
  scale : float;
  lambda_ : float;
}

let terms m ~temp =
  let vt_th = Dramstress_util.Units.thermal_voltage temp in
  let n = m.n_sub in
  {
    sgn = (match m.polarity with Nmos -> 1.0 | Pmos -> -1.0);
    vth_t = vth_mag m ~temp;
    n;
    vt_th;
    two_vt = 2.0 *. vt_th;
    scale = 2.0 *. n *. kp_t m ~temp *. vt_th *. vt_th;
    lambda_ = m.lambda;
  }

type bias = {
  mutable vgs : float;
  mutable vds : float;
  mutable i_d : float;
  mutable g_m : float;
  mutable g_ds : float;
}

let bias () = { vgs = 0.0; vds = 0.0; i_d = 0.0; g_m = 0.0; g_ds = 0.0 }

(* numerically stable softplus and its derivative (logistic sigmoid) *)
let[@inline] softplus u =
  if u > 30.0 then u else if u < -30.0 then exp u else log1p (exp u)

let[@inline] sigmoid u =
  if u > 30.0 then 1.0
  else if u < -30.0 then exp u
  else 1.0 /. (1.0 +. exp (-.u))

(* Polarity reflection and source/drain exchange are folded into sign
   fixups around one forward-frame EKV evaluation. Inputs and outputs
   travel through the mutable all-float [bias] record, so an evaluation
   allocates nothing even when the call is not inlined — this sits
   inside the Newton stamp loop.

   Forward frame: NMOS with vds >= 0. PMOS is the NMOS dual at
   (-vgs, -vds) with Id = -Id_n, dId/dVgs = gm_n, dId/dVds = gds_n.
   Reverse bias (vds_n < 0) evaluates the mirrored device at
   vgs' = vgd = vgs - vds, vds' = -vds; Id = -Id'. Chain rule:
   dId/dvgs = -dId'/dvgs' * dvgs'/dvgs = -gm'.
   dId/dvds = -(gm' * dvgs'/dvds + gds' * dvds'/dvds) = gm' + gds'. *)
let[@inline] evaluate t b =
  let sgn = t.sgn in
  let vgs_n = sgn *. b.vgs and vds_n = sgn *. b.vds in
  let reversed = vds_n < 0.0 in
  let vgs_f = if reversed then vgs_n -. vds_n else vgs_n in
  let vds_f = if reversed then -.vds_n else vds_n in
  let vp = (vgs_f -. t.vth_t) /. t.n in
  let uf = vp /. t.two_vt in
  let ur = (vp -. vds_f) /. t.two_vt in
  let ff = softplus uf and fr = softplus ur in
  let i_f = ff *. ff and i_r = fr *. fr in
  let clm = 1.0 +. (t.lambda_ *. vds_f) in
  let id_f = t.scale *. (i_f -. i_r) *. clm in
  (* d i_f / d vp = ff * sigmoid(uf) / vt_th ; same pattern for i_r *)
  let dif_dvp = ff *. sigmoid uf /. t.vt_th in
  let dir_dvp = fr *. sigmoid ur /. t.vt_th in
  let gm_f = t.scale *. clm *. (dif_dvp -. dir_dvp) /. t.n in
  let gds_f = (t.scale *. clm *. dir_dvp) +. (t.scale *. (i_f -. i_r) *. t.lambda_) in
  if reversed then begin
    b.i_d <- sgn *. -.id_f;
    b.g_m <- -.gm_f;
    b.g_ds <- gm_f +. gds_f
  end
  else begin
    b.i_d <- sgn *. id_f;
    b.g_m <- gm_f;
    b.g_ds <- gds_f
  end

let ids m ~temp ~vgs ~vds =
  let b = bias () in
  b.vgs <- vgs;
  b.vds <- vds;
  evaluate (terms m ~temp) b;
  { id = b.i_d; gm = b.g_m; gds = b.g_ds }

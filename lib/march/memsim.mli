(** Behavioural memory-array simulator with injectable fault models.

    Classic functional faults (stuck-at, transition, coupling) are
    simulated digitally; {e weak cells} carry an analog storage state
    whose per-operation behaviour can be fitted from the electrical
    model ({!Weak.of_electrical}), bridging the paper's defect level and
    the march-test level. *)

module Weak : sig
  (** Analog behavioural cell. Writes approach their target
      exponentially; reads threshold against a sense level and restore;
      pauses drift towards a leak target. *)
  type t = {
    vdd : float;
    vsa : float;           (** read threshold, V *)
    alpha_w0 : float;      (** per-op approach rate towards 0 (>= 0) *)
    alpha_w1 : float;      (** per-op approach rate towards vdd *)
    alpha_restore : float; (** post-read restore rate towards the rail *)
    leak_target : float;   (** voltage the cell drifts to when idle *)
    leak_tau : float;      (** drift time constant, s *)
  }

  val ideal : vdd:float -> t

  (** [of_electrical ?config ~stress ~defect ()] fits the behavioural
      parameters by running single-operation electrical simulations of
      the defective column under [config]: one w0 from full charge, one
      w1 from empty, the sense threshold, and a 1 ms retention drift. *)
  val of_electrical :
    ?config:Dramstress_dram.Sim_config.t ->
    stress:Dramstress_dram.Stress.t ->
    defect:Dramstress_defect.Defect.t ->
    unit ->
    t
end

type fault =
  | Good
  | Stuck_at of int
  | Transition of int
      (** cannot transition {e to} the bit (TF0 / TF1) *)
  | Coupling_inv of int
      (** CFin: a write on the aggressor address inverts this cell *)
  | Coupling_idem of int * int
      (** CFid [(aggressor, value)]: a write of [value] on the aggressor
          forces this cell to [value] *)
  | Weak_cell of Weak.t

type t

(** [create ~size ~faults ()] builds a memory of [size] cells, all
    initialised to 0, with the given faults attached by address. Raises
    [Invalid_argument] on out-of-range addresses. *)
val create : size:int -> ?faults:(int * fault) list -> unit -> t

val size : t -> int

(** [write mem addr bit] applies a write, including coupling side
    effects on other cells. *)
val write : t -> int -> int -> unit

(** [read mem addr] returns the sensed bit (destructive-read-plus-restore
    semantics for weak cells). *)
val read : t -> int -> int

(** [wait mem dt] lets every weak cell drift for [dt] seconds. *)
val wait : t -> float -> unit

(** One march-test failure: where and what. *)
type failure = {
  addr : int;
  element : int;   (** index of the march element *)
  op : int;        (** index of the operation within the element *)
  expected : int;
  got : int;
}

(** [run_march mem test] executes the test (top-down addressing for
    [Down], ascending otherwise) and returns the failures in encounter
    order. The memory is left in its post-test state. *)
val run_march : t -> March.t -> failure list

(** [detects ~size ~fault test] — convenience: fresh memory, one fault at
    the middle address (aggressors at address 0), run, check. *)
val detects : size:int -> fault:fault -> March.t -> bool

(** Fault-coverage evaluation of march tests. *)

(** A named fault instance for reporting. *)
type case = { label : string; fault : Memsim.fault }

(** The classic digital fault list: SA0, SA1, TF0, TF1, CFin, CFid. *)
val standard_faults : case list

(** [electrical_faults ?config ?rs ~stress ~kind ~placement ()] builds
    weak-cell cases fitted from the electrical model
    ({!Memsim.Weak.of_electrical} under [config]) at each resistance in
    [rs] (default 50 k, 200 k, 500 k, 1 MOhm). *)
val electrical_faults :
  ?config:Dramstress_dram.Sim_config.t ->
  ?rs:float list ->
  stress:Dramstress_dram.Stress.t ->
  kind:Dramstress_defect.Defect.kind ->
  placement:Dramstress_defect.Defect.placement ->
  unit ->
  case list

type result = {
  test : March.t;
  detected : (case * bool) list;
  coverage : float;  (** fraction detected *)
}

(** [evaluate ?size test cases] runs the test against each fault in its
    own memory (default 16 cells). *)
val evaluate : ?size:int -> March.t -> case list -> result

(** [compare_tests ?size tests cases] evaluates several tests on the same
    fault list. *)
val compare_tests : ?size:int -> March.t list -> case list -> result list

(** [render results] tabulates tests x faults as text. *)
val render : result list -> string

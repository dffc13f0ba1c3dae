(* A full campaign round trip on the checked-in manifest
   examples/campaign_study.sexp: run it cold, run it again to show that
   the store answers everything the second time, then diff the two V_dd
   settings into the Table-1-style report.

   Run with: dune exec examples/campaign_study.exe
   The store persists in the system temp directory, so re-running the
   example is itself a warm rerun (delete the directory to start cold). *)

module Cp = Dramstress_campaign
module Store = Dramstress_util.Store
module Ops = Dramstress_dram.Ops

let manifest_path =
  if Array.length Sys.argv > 1 then Sys.argv.(1)
  else Filename.concat (Filename.dirname Sys.argv.(0)) "campaign_study.sexp"

(* fall back to the source location when running the installed binary
   from the repo root *)
let manifest_path =
  if Sys.file_exists manifest_path then manifest_path
  else "examples/campaign_study.sexp"

let store_dir =
  Filename.concat (Filename.get_temp_dir_name ()) "dramstress_vdd_study"

let with_store f =
  let s = Store.open_ ~name:"vdd-study" store_dir in
  Fun.protect ~finally:(fun () -> Store.close s) (fun () -> f s)

let () =
  let m = Cp.Manifest.load manifest_path in
  Format.printf "manifest: %a@." Cp.Manifest.pp m;
  Format.printf "store:    %s@.@." store_dir;

  (* first run: simulates whatever the store does not hold yet *)
  let first = with_store (fun s -> Cp.Runner.run ~store:s m) in
  Format.printf "first run:  %a@." Cp.Runner.pp_summary first;

  (* second run, fresh handle: everything must come back from disk *)
  Ops.Cache.clear Ops.Cache.default;
  let second = with_store (fun s -> Cp.Runner.run ~store:s m) in
  Format.printf "second run: %a@.@." Cp.Runner.pp_summary second;
  assert (second.Cp.Runner.simulated = 0);

  (* Table-1 mode: nominal vs low-vdd from the same store *)
  with_store (fun s ->
      let side label = { Cp.Diff.store = s; manifest = m; label } in
      let d =
        Cp.Diff.v
          ~pairing:(Cp.Diff.Stress_pair { a = "nominal"; b = "low-vdd" })
          ~a:(side "nominal") ~b:(side "low-vdd") ()
      in
      print_string (Cp.Diff.render d))

(* Measurement plumbing shared by the workloads: the clock and order
   statistics, an in-memory span recorder with per-layer self times,
   process memory readings, the campaign daemon's lifecycle, and the
   one-line JSON result. *)

module Tel = Dramstress_util.Telemetry
module Svc = Dramstress_campaign.Service
module P = Dramstress_campaign.Protocol

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (now () -. t0, v)

(* ------------------------------------------------------------------ *)
(* order statistics                                                    *)
(* ------------------------------------------------------------------ *)

(* linear interpolation between closest ranks; [nan] on no samples *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> Float.nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* files                                                               *)
(* ------------------------------------------------------------------ *)

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p p =
  if not (Sys.file_exists p) then begin
    mkdir_p (Filename.dirname p);
    try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* process memory                                                      *)
(* ------------------------------------------------------------------ *)

(* peak resident set of [pid] in kB ([VmHWM]); 0 once the process is
   gone *)
let vm_hwm_kb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0
  | text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | n :: _ -> Option.value ~default:acc (int_of_string_opt n)
          | [] -> acc)
        | _ -> acc)
      0
      (String.split_on_char '\n' text)

let children pid =
  let tasks = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir tasks with
  | exception Sys_error _ -> []
  | tids ->
    Array.to_list tids
    |> List.concat_map (fun tid ->
           match read_file (Filename.concat tasks (tid ^ "/children")) with
           | exception Sys_error _ -> []
           | s ->
             String.split_on_char ' ' (String.trim s)
             |> List.filter_map int_of_string_opt)

(* peak RSS of a process plus its direct children, MB *)
let tree_hwm_mb pid =
  float_of_int
    (List.fold_left (fun acc c -> acc + vm_hwm_kb c) (vm_hwm_kb pid)
       (children pid))
  /. 1024.0

let self_hwm_mb () = float_of_int (vm_hwm_kb (Unix.getpid ())) /. 1024.0

(* ------------------------------------------------------------------ *)
(* spans                                                               *)
(* ------------------------------------------------------------------ *)

(* Spans are kept in memory and written as JSON lines at exit. The bench
   opens spans around the public calls it makes; while tracing, the
   program's own telemetry spans (ops.run, transient.segment, ...) are
   captured through a custom sink and placed in the same tree. Every
   span ends after its children, so the tree is built on the fly: a
   finishing span adopts the pending finished spans its interval
   contains, and its self time is its duration minus theirs. *)
module Trace = struct
  type span = {
    id : int;
    name : string;
    origin : string;  (** "bench" or "program" *)
    start : float;
    stop : float;
    attrs : (string * string) list;
    mutable parent : int;  (** 0 for a root *)
  }

  let max_kept = 200_000
  let on = ref false
  let lock = Mutex.create ()
  let next_id = ref 0
  let kept : span list ref = ref []
  let n_kept = ref 0
  let dropped = ref 0
  let pending : span list ref = ref []
  let self_by_layer : (string, float) Hashtbl.t = Hashtbl.create 16

  (* the layer a span belongs to, named after the ROADMAP's layer list *)
  let layer name =
    match name with
    | "protocol.submit" -> "protocol+service"
    | "runner.run" -> "runner"
    | "runner.states" -> "store"
    | "runner.simulate_point" -> "border"
    | "procpool.exec" -> "procpool+sandbox"
    | "table1.generate" | "table1.row" -> "table1"
    | "ops.run" | "ops.run_batch" | "ops.retry" -> "ops"
    | "transient.segment" -> "integrator"
    | n -> (
      match String.index_opt n '.' with Some i -> String.sub n 0 i | None -> n)

  let finish s =
    Mutex.protect lock (fun () ->
        let inside c = c.start >= s.start -. 1e-7 && c.stop <= s.stop +. 1e-7 in
        let kids, rest = List.partition inside !pending in
        let child_time =
          List.fold_left
            (fun acc c ->
              c.parent <- s.id;
              acc +. (c.stop -. c.start))
            0.0 kids
        in
        let self = Float.max 0.0 (s.stop -. s.start -. child_time) in
        let l = layer s.name in
        Hashtbl.replace self_by_layer l
          (self +. Option.value ~default:0.0 (Hashtbl.find_opt self_by_layer l));
        pending := s :: rest;
        if !n_kept < max_kept then begin
          kept := s :: !kept;
          incr n_kept
        end
        else incr dropped)

  let fresh_id () =
    Mutex.protect lock (fun () ->
        incr next_id;
        !next_id)

  let span ?(attrs = []) name f =
    if not !on then f ()
    else begin
      let id = fresh_id () in
      let start = now () in
      let close () =
        finish { id; name; origin = "bench"; start; stop = now (); attrs;
                 parent = 0 }
      in
      match f () with
      | v ->
        close ();
        v
      | exception e ->
        close ();
        raise e
    end

  (* forward the program's telemetry spans into the tree *)
  let program_sink =
    Tel.Sink.custom (fun (ev : Tel.event) ->
        if !on then
          finish
            { id = fresh_id (); name = ev.Tel.name; origin = "program";
              start = ev.Tel.ts; stop = ev.Tel.ts +. ev.Tel.dur_s; attrs = [];
              parent = 0 })

  (* time covered by root spans: everything the layers account for *)
  let covered () =
    Mutex.protect lock (fun () ->
        List.fold_left (fun acc s -> acc +. (s.stop -. s.start)) 0.0 !pending)

  let self_times () =
    Hashtbl.fold (fun l t acc -> (l, t) :: acc) self_by_layer []
    |> List.sort compare

  let write_jsonl path =
    Out_channel.with_open_text path (fun oc ->
        List.iter
          (fun s ->
            Printf.fprintf oc
              "{\"id\": %d, \"parent\": %d, \"name\": \"%s\", \"layer\": \
               \"%s\", \"origin\": \"%s\", \"start\": %.6f, \"end\": %.6f%s}\n"
              s.id s.parent (Tel.json_escape s.name)
              (Tel.json_escape (layer s.name))
              s.origin s.start s.stop
              (String.concat ""
                 (List.map
                    (fun (k, v) ->
                      Printf.sprintf ", \"%s\": \"%s\"" (Tel.json_escape k)
                        (Tel.json_escape v))
                    s.attrs)))
          (List.rev !kept);
        (* last line: each layer's self time over the whole trace *)
        Printf.fprintf oc "{\"self_s\": {%s}, \"dropped_spans\": %d}\n"
          (String.concat ", "
             (List.map
                (fun (l, t) -> Printf.sprintf "\"%s\": %.6f" (Tel.json_escape l) t)
                (self_times ())))
          !dropped)
end

let span = Trace.span

(* ------------------------------------------------------------------ *)
(* telemetry counters                                                  *)
(* ------------------------------------------------------------------ *)

(* [with_counters f] runs [f] with the program's telemetry enabled (and
   its spans forwarded to {!Trace}) and returns [f]'s value with the
   counter deltas and the minor words allocated meanwhile *)
let with_counters f =
  let before = (Tel.snapshot ()).Tel.counters in
  let words0 = Gc.minor_words () in
  Tel.set_sink Trace.program_sink;
  Tel.set_enabled true;
  let v =
    Fun.protect
      ~finally:(fun () ->
        Tel.set_enabled false;
        Tel.close_sink ())
      f
  in
  let words = Gc.minor_words () -. words0 in
  let after = (Tel.snapshot ()).Tel.counters in
  let delta =
    List.map
      (fun (k, v) -> (k, v - Option.value ~default:0 (List.assoc_opt k before)))
      after
  in
  (v, delta, words)

let count delta name = Option.value ~default:0 (List.assoc_opt name delta)

(* ------------------------------------------------------------------ *)
(* the campaign daemon                                                 *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; socket : string }

let live : daemon list ref = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ()

let kill_daemon d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap d.pid;
  live := List.filter (fun x -> x.pid <> d.pid) !live

let () = at_exit (fun () -> List.iter kill_daemon !live)

(* [spawn_daemon ~exe ~dir ~store_dir ~metrics] starts [dramstress
   serve] with one sandbox worker and returns once it answers
   [status], with the seconds that took. Paths are relative to the
   working directory, which keeps the socket path short. *)
let spawn_daemon ~exe ~dir ~store_dir ~metrics =
  mkdir_p dir;
  let socket = Filename.concat dir "d.sock" in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let args =
    [ exe; "serve"; "--store"; store_dir; "--socket"; socket; "--jobs"; "1" ]
    @
    (* --metrics turns the daemon's telemetry on, so the counters verb
       has values to report *)
    if metrics then
      [ "--metrics"; "json"; "--metrics-out"; Filename.concat dir "metrics.json" ]
    else []
  in
  let t0 = now () in
  let pid =
    Unix.create_process exe (Array.of_list args) Unix.stdin log log
  in
  Unix.close log;
  let d = { pid; socket } in
  live := d :: !live;
  let rec wait () =
    match Svc.Client.request ~socket P.Status with
    | P.Status_report _ -> now () -. t0
    | _ -> failwith "daemon: unexpected reply to status"
    | exception (Svc.Client.Transport _ | Unix.Unix_error _) ->
      if now () -. t0 > 60.0 then begin
        kill_daemon d;
        failwith "daemon did not answer status within 60 s"
      end;
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        live := List.filter (fun x -> x.pid <> pid) !live;
        failwith "daemon exited during start-up"
      | exception Unix.Unix_error _ -> ());
      (* a fine poll: the start-up itself takes a few ms *)
      Unix.sleepf 0.0001;
      wait ()
  in
  let setup_s = wait () in
  (d, setup_s)

let daemon_counters d =
  match Svc.Client.request ~socket:d.socket P.Counters with
  | P.Counter_values cs -> cs
  | _ -> failwith "daemon: unexpected reply to counters"

let daemon_records d =
  match Svc.Client.request ~socket:d.socket P.Status with
  | P.Status_report { records; _ } -> records
  | _ -> failwith "daemon: unexpected reply to status"

(* graceful stop: the shutdown verb drains, flushes the store and reaps
   the worker; a daemon that does not comply is killed *)
let stop_daemon d =
  (match Svc.Client.request ~socket:d.socket P.Shutdown with
  | _ -> reap d.pid
  | exception (Svc.Client.Transport _ | Unix.Unix_error _) -> kill_daemon d);
  live := List.filter (fun x -> x.pid <> d.pid) !live

(* ------------------------------------------------------------------ *)
(* result line                                                         *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let result_line ~correct ~attempted ~failed metrics =
  let num x =
    if Float.is_finite x.value then Printf.sprintf "%.17g" x.value
    else failwith ("metric " ^ x.name ^ " is not a finite number")
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name
              (num x) x.unit_)
          metrics))

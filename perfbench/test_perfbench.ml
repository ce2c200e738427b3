(* The benchmark's own tests, at a tiny scale, on every workload
   BENCHMARK.json lists: the metric catalogue matches BENCHMARK.json and every
   workload emits all of it without a wrong answer, a corrupted answer is
   counted as an error, and traced spans nest and cover each layer call. *)

open Perfbench

let cfg ?(trace = false) ?(corrupt = false) () =
  { Workloads.seed = 5; seconds = 0.3; trace; scale = Workloads.Tiny; corrupt;
    domains = 2; out_dir = "." }

(* the [(k1, k2)] string pairs of every entry of one list of BENCHMARK.json *)
let declared ?(k1 = "name") ?(k2 = "unit") key =
  let ic = open_in "../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Sjson.parse text with
  | Error e -> Alcotest.fail ("BENCHMARK.json: " ^ e)
  | Ok j ->
    List.map
      (fun m ->
        let s k = Option.get (Option.bind (Sjson.member k m) Sjson.get_string) in
        (s k1, s k2))
      (Option.get (Option.bind (Sjson.member key j) Sjson.get_arr))

let declared_workloads () = declared ~k2:"why" "workloads"

let names (o : Workloads.outcome) = List.map (fun (n, _, u, _) -> (n, u)) o.Workloads.metrics

let test_catalogue () =
  let pair = Alcotest.(list (pair string string)) in
  Alcotest.check pair "end_to_end" (declared "end_to_end") Util.end_to_end;
  Alcotest.check pair "per_layer" (declared "per_layer") Util.per_layer;
  List.iter
    (fun (w, _) ->
      if not (List.mem w Workloads.all) then Alcotest.failf "unknown workload %s" w)
    (declared_workloads ())

(* Each run gets a process of its own, as the benchmark's command gives it:
   a run that started worker domains can no longer fork. *)
let run cfg w =
  match
    Workloads.in_child (fun () ->
        let o = Workloads.run cfg w in
        (o, Trace.spans ()))
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "%s: %s" w e

let outcomes = Hashtbl.create 8

(* one untraced and one traced run per workload, shared by the tests *)
let runs w =
  match Hashtbl.find_opt outcomes w with
  | Some r -> r
  | None ->
    let plain, _ = run (cfg ()) w in
    let traced, spans = run (cfg ~trace:true ()) w in
    let r = (plain, traced, spans) in
    Hashtbl.add outcomes w r;
    r

let test_emitted w () =
  let plain, traced, _ = runs w in
  let pair = Alcotest.(list (pair string string)) in
  Alcotest.check pair "untraced metrics" Util.end_to_end (names plain);
  Alcotest.check pair "traced metrics" Util.per_layer (names traced);
  List.iter
    (fun (o : Workloads.outcome) ->
      Alcotest.(check (list string)) "no mismatches" [] o.Workloads.problems;
      Alcotest.(check int) "failed" 0 o.Workloads.failed;
      Alcotest.(check bool) "attempted" true (o.Workloads.attempted > 0))
    [ plain; traced ];
  List.iter
    (fun (n, v, _, _) ->
      if not (Float.is_finite v) then Alcotest.failf "%s is not finite" n;
      if List.mem_assoc n Util.end_to_end && v <= 0.0 then Alcotest.failf "%s is %g" n v)
    plain.Workloads.metrics

let metric (o : Workloads.outcome) name =
  List.find_map (fun (n, v, _, _) -> if n = name then Some v else None) o.Workloads.metrics

let test_corrupt w () =
  let o, _ = run (cfg ~trace:true ~corrupt:true ()) w in
  Alcotest.(check bool) "failed > 0" true (o.Workloads.failed > 0);
  match metric o "error_rate" with
  | Some e -> Alcotest.(check bool) "error_rate > 0" true (e > 0.0)
  | None -> Alcotest.fail "no error_rate"

(* the layer calls each workload must trace, beside the request roots *)
let layer_calls = function
  | "ha_fabric" ->
    [ "verdict"; "config.parse"; "dataplane.compute"; "forwarding.build"; "lint.check";
      "forwarding.all_pairs"; "forwarding.multipath"; "forwarding.loops";
      "forwarding.start_groups" ]
  | "bgp_fabric" ->
    [ "verdict"; "config.parse"; "dataplane.compute"; "forwarding.build"; "lint.check";
      "forwarding.routes"; "dataplane.bgp_status"; "forwarding.multipath";
      "forwarding.loops"; "forwarding.start_groups" ]
  | "dc_failures" ->
    [ "verdict"; "config.parse"; "dataplane.compute"; "forwarding.build"; "failures.sweep";
      "failures.atoms"; "failures.classify"; "failures.noprune_sweep" ]
  | "ci_service" ->
    [ "edit"; "service.update"; "service.query"; "service.unload"; "service.query_hit";
      "service.query_reach"; "core.update" ]
  | w -> Alcotest.failf "no layer calls listed for %s" w

(* the request span every nested layer call of a workload sits under *)
let request_root = function "ci_service" -> "edit" | _ -> "verdict"

let test_spans w () =
  let _, traced, spans = runs w in
  Alcotest.(check (list string)) "nesting" [] (Trace.nesting_errors spans);
  let seen = List.sort_uniq compare (List.map (fun (s : Trace.span) -> s.Trace.name) spans) in
  List.iter
    (fun name ->
      if not (List.mem name seen) then Alcotest.failf "no %s span" name)
    (layer_calls w);
  (* every nested layer call sits under its request's span: a cold verdict,
     or an edit of ci_service *)
  List.iter
    (fun (s : Trace.span) ->
      if s.Trace.parent <> 0 then begin
        let root = List.find (fun (r : Trace.span) -> r.Trace.id = s.Trace.root) spans in
        if root.Trace.name <> request_root w then
          Alcotest.failf "%s sits under %s" s.Trace.name root.Trace.name
      end)
    spans;
  List.iter
    (fun (n, v, _, _) ->
      if Filename.check_suffix n "_self_s" && v < 0.0 then
        Alcotest.failf "%s is negative" n)
    traced.Workloads.metrics;
  match metric traced "trace.overhead_s" with
  | Some v when Float.is_finite v -> ()
  | _ -> Alcotest.fail "no tracing overhead"

let () =
  let per_workload name f =
    (name, List.map (fun (w, _) -> Alcotest.test_case w `Quick (f w)) (declared_workloads ()))
  in
  Alcotest.run "perfbench"
    [ ("catalogue", [ Alcotest.test_case "matches BENCHMARK.json" `Quick test_catalogue ]);
      per_workload "emitted" test_emitted;
      per_workload "spans" test_spans;
      per_workload "corrupt" test_corrupt ]

(* Measurement helpers shared by every workload: clocks, order statistics,
   process memory, answer digests and the metric catalogue. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* User plus system CPU seconds of this process, every domain included, to
   the microsecond (getrusage). It leaves out what the hypervisor steals,
   but not the spinning of a domain that waits at a stop-the-world
   collection for a domain whose CPU was stolen. *)
let cpu_time = Sys.time

(* Seconds the hypervisor has kept each virtual CPU from running while it
   had work, since boot: the steal column of the cpuN lines of /proc/stat,
   in USER_HZ (1/100 s). An empty array where the kernel does not say. *)
let steal () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> [||]
  | ic ->
    let per_cpu line =
      match String.split_on_char ' ' line with
      | cpu :: fields
        when String.length cpu > 3 && String.sub cpu 0 3 = "cpu" && List.length fields >= 8 ->
        Some (float_of_string (List.nth fields 7) /. 100.0)
      | _ -> None
    in
    let rec scan acc =
      match input_line ic with
      | line -> scan (match per_cpu line with Some s -> s :: acc | None -> acc)
      | exception End_of_file -> Array.of_list (List.rev acc)
    in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> scan [])

(* [wall] seconds measured between the steal readings [s0] and [s1], less
   the time the hypervisor stole: the share of the window in which every
   CPU ran, taking steal on different CPUs as independent. A CPU that had
   no work in the window has no steal, so a serial stretch is corrected by
   its own CPU's steal only. When the host is busy, steal can stretch wall
   time 2.5-fold; whatever else slows the machine stays in. *)
let unstolen ~wall s0 s1 =
  let share = ref 1.0 in
  for i = 0 to min (Array.length s0) (Array.length s1) - 1 do
    share := !share *. Float.max 0.0 (1.0 -. ((s1.(i) -. s0.(i)) /. wall))
  done;
  wall *. !share

(* Run [f] and return its result, its wall time, that time less steal
   (see [unstolen]), and the steal seconds summed over CPUs. *)
let time_unstolen f =
  let s0 = steal () in
  let r, wall = time f in
  let s1 = steal () in
  let stolen = ref 0.0 in
  Array.iteri (fun i s -> if i < Array.length s0 then stolen := !stolen +. s -. s0.(i)) s1;
  (r, wall, unstolen ~wall s0 s1, !stolen)

(* [quantile xs q] with linear interpolation between closest ranks; 0 on an
   empty sample. *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let j = min (n - 1) (i + 1) in
    a.(i) +. ((pos -. float_of_int i) *. (a.(j) -. a.(i)))

let median xs = quantile xs 0.5

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Nearest-rank percentile: the smallest sample with at least [q] of the
   samples at or below it. *)
let percentile xs q =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

(* Peak resident set size of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line -> (
      match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
      | Some kb -> float_of_int kb /. 1024.0
      | None -> scan ())
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Content digest of a list of answers. Rows are sorted first, so the digest
   names what was answered, not the order rows were emitted in. *)
let digest_answers (answers : Questions.answer list) =
  let buf = Buffer.create 4096 in
  let add_row row =
    List.iter
      (fun cell ->
        Buffer.add_string buf cell;
        Buffer.add_char buf '\x1f')
      row;
    Buffer.add_char buf '\x1e'
  in
  List.iter
    (fun (a : Questions.answer) ->
      Buffer.add_string buf a.Questions.a_title;
      Buffer.add_char buf '\x1d';
      add_row a.Questions.a_header;
      List.iter add_row (List.sort compare a.Questions.a_rows);
      Buffer.add_char buf '\x1c')
    answers;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* A batch workload's input is one of [variants] file sets chosen by the
   seed: variant 0 is the generated network, each other variant carries one
   seeded parse-safe edit of one file. The edit kinds are ones that leave
   the amount of work alone, so runs with different seeds measure the same
   thing, and there are few enough variants to record every answer digest. *)
let variants = 8

let variant_of_seed seed = ((seed mod variants) + variants) mod variants

let variant_files v (net : Netgen.network) =
  if v = 0 then net.Netgen.n_configs
  else begin
    let rng = Rng.create v in
    let files = Array.of_list net.Netgen.n_configs in
    let rec edit tries =
      let i = Rng.int rng (Array.length files) in
      let kind = Rng.pick rng [| "add-acl-line"; "add-loopback"; "comment-edit" |] in
      let name, text = files.(i) in
      match Chaos.semantic_edit ~rng ~kind text with
      | Some (text', _) -> files.(i) <- (name, text')
      | None -> if tries > 0 then edit (tries - 1)
    in
    edit 100;
    Array.to_list files
  end

let profile name =
  List.find (fun (p : Netgen.profile) -> p.Netgen.p_name = name) Netgen.profiles

(* Every end-to-end metric, emitted by every workload with tracing off.
   [verdict_s] is the lower quartile of a run's wall-clock verdicts (on
   ci_service, the mean over the edit script of each edit's lower
   quartile), each less the time the hypervisor stole from the machine's
   CPUs while it ran ([unstolen]): a verdict run on a busy host reads
   about as it does on a quiet one, and a loss of parallelism still shows
   in full.
   [peak_rss_mb] is the mean of the iterations' peaks: where a major
   collection ends decides the peak, so one input peaks at two levels 15%
   apart, and a median would jump between them from run to run. *)
let end_to_end = [ ("setup_s", "s"); ("verdict_s", "s"); ("peak_rss_mb", "MB") ]

(* Layer timings that come from spans; each also gets a [_self_s] twin in
   the traced run (span duration minus the part covered by child spans). *)
let span_timings =
  [ ("config.parse", "config.parse_s");
    ("dataplane.compute", "dataplane.compute_s");
    ("core.update", "core.update_s");
    ("forwarding.build", "forwarding.build_s");
    ("forwarding.all_pairs", "forwarding.all_pairs_s");
    ("forwarding.multipath", "forwarding.multipath_s");
    ("forwarding.loops", "forwarding.loops_s");
    ("lint.check", "lint.check_s");
    ("failures.sweep", "failures.sweep_s");
    ("failures.atoms", "failures.atoms_s");
    ("failures.classify", "failures.classify_s");
    ("service.update", "service.update_s");
    ("service.query_hit", "service.query_hit_s");
    ("service.query_reach", "service.query_reach_s") ]

let self_name metric = String.sub metric 0 (String.length metric - 2) ^ "_self_s"

(* Every per-layer metric, emitted by every workload with tracing on. A
   layer a workload does not exercise reads 0 there. Which end-to-end
   metric each should move, and where (all of them verdict_s):

   - config.*: verdict on ha_fabric (516 configurations), and of ci_service
   - dataplane.compute_s, rounds, routes, rib_words: verdict and
     peak_rss_mb on bgp_fabric
   - dataplane.nodes_*, frontier_nodes, core.update_s: verdict of
     ci_service
   - forwarding.build_s, locs, edges, rebuilds: verdict everywhere
   - forwarding.all_pairs_s, starts, start_groups, rows, bdd.*, gc.*:
     verdict and peak_rss_mb on ha_fabric
   - forwarding.multipath_s, loops_s, lint.check_s, par.jobs: verdict on
     ha_fabric and bgp_fabric
   - forwarding.memo_*, service.*: verdict and service.requests_per_s of
     ci_service
   - failures.*: verdict on dc_failures
   - verdict_wall_s, verdict_cpu_s (CPU seconds of every domain) and
     host.steal_s (summed over CPUs): the parts verdict_s is made from,
     medians over the untraced verdicts of a traced run

   Batch workloads give one sample per cold iteration; ci_service one per
   request, or per script edit for the updates replayed on a direct session. *)
let per_layer =
  List.map (fun (_, m) -> (m, "s")) span_timings
  @ List.map (fun (_, m) -> (self_name m, "s")) span_timings
  @ [ ("config.files_reparsed", "count"); ("dataplane.rounds", "count");
      ("dataplane.routes", "count"); ("dataplane.rib_words", "words");
      ("dataplane.nodes_simulated", "count"); ("dataplane.nodes_reused", "count");
      ("dataplane.frontier_nodes", "count"); ("forwarding.locs", "count");
      ("forwarding.edges", "count"); ("forwarding.rebuilds", "count");
      ("forwarding.starts", "count"); ("forwarding.start_groups", "count");
      ("forwarding.rows", "count"); ("forwarding.memo_hits", "count");
      ("forwarding.memo_misses", "count"); ("bdd.nodes", "count");
      ("bdd.cache_hit_rate", "ratio"); ("failures.enumerated", "count");
      ("failures.simulated", "count"); ("failures.atoms", "count");
      ("failures.prune_yield", "ratio"); ("failures.noprune_sweep_s", "s");
      ("service.overhead_s", "s"); ("service.rss_growth_mb", "MB");
      ("service.requests_per_s", "1/s"); ("service.query_p50_s", "s");
      ("service.query_p99_s", "s"); ("service.computed", "count");
      ("service.errors", "count");
      ("par.jobs", "count"); ("gc.major_collections", "count");
      ("gc.allocated_mb", "MB"); ("trace.overhead_s", "s");
      ("verdict_wall_s", "s"); ("verdict_cpu_s", "s"); ("host.steal_s", "s");
      ("error_rate", "ratio") ]

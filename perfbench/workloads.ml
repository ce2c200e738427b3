(* The four benchmark workloads. Each drives the library from outside,
   through the public call of each layer, wraps every such call in a
   {!Trace.span}, checks the answers against references outside the timed
   region and returns the run's metrics. *)

type scale = Full | Tiny

type cfg = {
  seed : int;
  seconds : float;
  trace : bool;
  scale : scale;
  corrupt : bool;  (** alter every answer before it is checked *)
  domains : int;  (** size of every session or service worker pool *)
  out_dir : string;  (** spans and service sockets go here *)
}

let scale_name = function Full -> "full" | Tiny -> "tiny"

type outcome = {
  attempted : int;
  failed : int;
  problems : string list;  (** the first few mismatches, for the log *)
  metrics : (string * float * string * int) list;  (** name, value, unit, samples *)
}

(* --- one run's accumulated numbers ------------------------------------- *)

type run = {
  samples : (string, float list) Hashtbl.t;
  fixed : (string, float * int) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
}

let new_run () =
  { samples = Hashtbl.create 64; fixed = Hashtbl.create 16; attempted = 0;
    failed = 0; problems = [] }

let add r name v =
  Hashtbl.replace r.samples name
    (v :: Option.value ~default:[] (Hashtbl.find_opt r.samples name))

let get r name = Option.value ~default:[] (Hashtbl.find_opt r.samples name)
let set r name v n = Hashtbl.replace r.fixed name (v, n)

(* Count one operation; a wrong or failed one also counts as failed. *)
let attempt r ok detail =
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    if List.length r.problems < 10 then r.problems <- detail () :: r.problems
  end

let corrupt_answers = function
  | (a : Questions.answer) :: rest ->
    { a with Questions.a_rows = [ "corrupted" ] :: a.Questions.a_rows } :: rest
  | [] -> [ { Questions.a_title = "corrupted"; a_header = []; a_rows = [] } ]

(* Per-layer times from the traced spans: each request (root span) gives one
   sample of every layer timing it contains, total and self. GC deltas come
   from the request roots named [gc_root]. *)
let span_metrics r ~gc_root spans =
  let groups = Hashtbl.create 64 in
  List.iter
    (fun (s : Trace.span) ->
      Hashtbl.replace groups s.Trace.root
        (s :: Option.value ~default:[] (Hashtbl.find_opt groups s.Trace.root)))
    spans;
  Hashtbl.iter
    (fun _ group ->
      let totals = Trace.totals group in
      List.iter
        (fun (span, metric) ->
          match List.assoc_opt span totals with
          | Some (total, self) ->
            add r metric total;
            add r (Util.self_name metric) self
          | None -> ())
        Util.span_timings)
    groups;
  List.iter
    (fun (s : Trace.span) ->
      if s.Trace.parent = 0 && s.Trace.name = gc_root then begin
        add r "gc.major_collections" (float_of_int s.Trace.major_collections);
        add r "gc.allocated_mb" (s.Trace.allocated_words *. 8.0 /. 1048576.0)
      end)
    spans

let trace_overhead r ~untraced ~traced =
  let u = get r untraced and t = get r traced in
  if u <> [] && t <> [] then
    set r "trace.overhead_s" (Util.median t -. Util.median u) (List.length t)

let finish cfg name r =
  let spans = Trace.spans () in
  if cfg.trace then begin
    Trace.write_jsonl
      (Filename.concat cfg.out_dir
         (Printf.sprintf "spans-%s-%d.jsonl" name cfg.seed))
      spans;
    set r "error_rate"
      (float_of_int r.failed /. float_of_int (max 1 r.attempted))
      r.attempted
  end;
  let catalogue = if cfg.trace then Util.per_layer else Util.end_to_end in
  let metrics =
    List.map
      (fun (m, unit) ->
        match Hashtbl.find_opt r.fixed m with
        | Some (v, n) -> (m, v, unit, n)
        | None ->
          let xs = get r m in
          let stat =
            match m with
            | "verdict_s" -> Util.quantile xs 0.25
            | "peak_rss_mb" -> Util.mean xs
            | _ -> Util.median xs
          in
          (m, stat, unit, List.length xs))
      catalogue
  in
  { attempted = r.attempted; failed = r.failed; problems = List.rev r.problems;
    metrics }

(* Run [f] in [n] child processes at once and return their results: every
   cold iteration starts from the same small heap, so neither its time nor
   its peak memory depends on how many iterations ran before it. The caller
   must not be running other domains or threads. *)
let in_children n (f : unit -> 'a) : ('a, string) result list =
  flush_all ();
  let spawn () =
    let rd, wr = Unix.pipe ~cloexec:true () in
    match Unix.fork () with
    | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      let res = try Ok (f ()) with exn -> Error (Printexc.to_string exn) in
      Marshal.to_channel oc res [];
      close_out oc;
      Unix._exit 0
    | pid ->
      Unix.close wr;
      (pid, rd)
  in
  let children = List.init n (fun _ -> spawn ()) in
  List.map
    (fun (pid, rd) ->
      let ic = Unix.in_channel_of_descr rd in
      let res =
        try Marshal.from_channel ic with End_of_file -> Error "child process died"
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      res)
    children

let in_child f = List.hd (in_children 1 f)

(* Set up nine times and report the median CPU time as [setup_s]; then set
   up once more here and return the result. Each sample is the mean over as
   many set-ups as fill [fill] seconds, in two processes at once: a set-up
   runs on one core, and on a shared host one core can run the same code
   1.8x slower than the other for seconds at a time, so a sample from one
   process reads whichever core it landed on. Fresh processes give every
   sample the same small heap to start from. *)
let timed_setup r ~fill make =
  for _ = 1 to 9 do
    let per_process =
      in_children 2 (fun () ->
          let t0 = Util.now () and c0 = Util.cpu_time () in
          let rec go n =
            ignore (make ());
            if Util.now () -. t0 < fill then go (n + 1)
            else (Util.cpu_time () -. c0) /. float_of_int n
          in
          go 1)
    in
    match per_process with
    | [ Ok a; Ok b ] -> add r "setup_s" ((a +. b) /. 2.0)
    | _ -> attempt r false (fun () -> "set-up: a set-up process failed")
  done;
  make ()

(* --- cold batch workloads: config text to the last answer ----------------- *)

type batch = {
  name : string;
  profile : string;
  full_scale : float;
  tiny_scale : float;
  questions : (string * (Batfish.t -> Questions.answer list)) list;
      (** span name and the question shortcut, in order *)
  probe : run -> Batfish.t -> (string * Questions.answer list) list -> unit;
      (** traced runs only: layer counters, read after the verdict *)
  cold_probes : (run -> Batfish.t -> unit) list;
      (** traced runs only: layer calls timed on their own, each in a fresh
          process on a fresh session with its forwarding engine built, so no
          cache the verdict warmed can shorten them *)
  reference : env:Dp_env.t -> Batfish.t -> (unit, string) result;
      (** independent-engine check of a session, after its verdict is timed *)
}

let pipeline ~options ~env ~files questions =
  Trace.span "verdict" (fun () ->
      let snap = Trace.span "config.parse" (fun () -> Batfish.Snapshot.of_texts files) in
      let bf = Batfish.init ~options ~env snap in
      ignore (Trace.span "dataplane.compute" (fun () -> Batfish.dataplane bf));
      ignore (Trace.span "forwarding.build" (fun () -> Batfish.forwarding bf));
      let answers =
        List.map (fun (span, ask) -> (span, Trace.span span (fun () -> ask bf))) questions
      in
      (bf, answers))

let layer_counters r bf =
  let dp = Batfish.dataplane bf and q = Batfish.forwarding bf in
  let f = float_of_int in
  add r "config.files_reparsed" (f (Batfish.Snapshot.reparsed (Batfish.snapshot bf)));
  add r "dataplane.rounds" (f dp.Dataplane.rounds);
  add r "dataplane.routes" (f (Dataplane.total_routes dp));
  add r "dataplane.rib_words" (f (Dataplane.rib_words dp));
  add r "dataplane.nodes_simulated" (f dp.Dataplane.stats.Dataplane.st_simulated_nodes);
  add r "dataplane.nodes_reused" (f dp.Dataplane.stats.Dataplane.st_reused_nodes);
  add r "dataplane.frontier_nodes" (f dp.Dataplane.stats.Dataplane.st_frontier_nodes);
  let g = Fquery.graph q in
  add r "forwarding.locs" (f (Fgraph.n_locs g));
  add r "forwarding.edges" (f (Fgraph.n_edges g));
  add r "forwarding.rebuilds" 1.0;
  let starts = Fquery.default_starts q in
  add r "forwarding.starts" (f (List.length starts));
  add r "forwarding.start_groups"
    (f (List.length
          (Trace.span "forwarding.start_groups" (fun () -> Fquery.start_groups q starts))));
  let hits, misses = Fquery.memo_stats q in
  add r "forwarding.memo_hits" (f hits);
  add r "forwarding.memo_misses" (f misses);
  let man = Pktset.man (Fquery.env q) in
  let nodes, _, _ = Bdd.stats man in
  add r "bdd.nodes" (f nodes);
  let cs = Bdd.cache_stats man in
  add r "bdd.cache_hit_rate"
    (f cs.Bdd.cs_hits /. f (max 1 (cs.Bdd.cs_hits + cs.Bdd.cs_misses)));
  Option.iter (fun (_, jobs) -> add r "par.jobs" (f jobs)) (Batfish.pool_stats bf)

let differential ~env:_ bf =
  match Batfish.differential_engine_test bf with
  | _ -> Ok ()
  | exception Failure msg -> Error ("differential engine test: " ^ msg)

(* What one cold iteration reports back to the measuring process. *)
type iteration = {
  it_verdict : float;  (** wall time less steal, see {!Util.unstolen} *)
  it_wall : float;
  it_steal : float;  (** steal seconds in the verdict, summed over CPUs *)
  it_cpu : float;  (** CPU seconds the verdict took, every domain included *)
  it_digest : string;
  it_rss : float;  (** peak RSS of the iteration's process, before checks *)
  it_samples : (string * float) list;  (** layer counters of a traced iteration *)
  it_spans : Trace.span list;
  it_reference : (unit, string) result option;
}

let samples_of r =
  Hashtbl.fold (fun k vs acc -> List.map (fun v -> (k, v)) vs @ acc) r.samples []

let one_iteration cfg (w : batch) ~options ~env ~files ~traced ~check =
  let r = new_run () in
  let cold =
    if not traced then []
    else
      List.map
        (fun probe ->
          in_child (fun () ->
              let bf = Batfish.init ~options ~env (Batfish.Snapshot.of_texts files) in
              ignore (Batfish.forwarding bf);
              let r = new_run () in
              Trace.reset ();
              Trace.enabled := true;
              probe r bf;
              Trace.enabled := false;
              Batfish.shutdown bf;
              (samples_of r, Trace.spans ())))
        w.cold_probes
  in
  Trace.reset ();
  Trace.enabled := traced;
  let cpu0 = Util.cpu_time () in
  let (bf, answers), wall, dt, stolen =
    Util.time_unstolen (fun () -> pipeline ~options ~env ~files w.questions)
  in
  let cpu = Util.cpu_time () -. cpu0 in
  if traced then w.probe r bf answers;
  Trace.enabled := false;
  List.iter
    (function
      | Ok (samples, spans) ->
        List.iter (fun (k, v) -> add r k v) samples;
        Trace.absorb spans
      | Error e -> failwith ("cold probe: " ^ e))
    cold;
  let all = List.concat_map snd answers in
  let it_rss = Util.peak_rss_mb () in
  let it_reference = if check then Some (w.reference ~env bf) else None in
  Batfish.shutdown bf;
  { it_verdict = dt;
    it_wall = wall;
    it_steal = stolen;
    it_cpu = cpu;
    it_digest = Util.digest_answers (if cfg.corrupt then corrupt_answers all else all);
    it_rss;
    it_samples = samples_of r;
    it_spans = Trace.spans ();
    it_reference }

let run_batch cfg (w : batch) =
  let r = new_run () in
  let p = Util.profile w.profile in
  let scale = match cfg.scale with Full -> w.full_scale | Tiny -> w.tiny_scale in
  let variant = Util.variant_of_seed cfg.seed in
  (* set-up generates the network; the seeded variant's edit is left out of
     it, so every seed sets up the same work *)
  let net =
    timed_setup r ~fill:(match cfg.scale with Full -> 0.2 | Tiny -> 0.02) (fun () ->
        p.Netgen.p_make scale)
  in
  let files = Util.variant_files variant net in
  let expected = Digests.find ~workload:w.name ~scale:(scale_name cfg.scale) ~variant in
  let options = { Dataplane.default_options with domains = cfg.domains } in
  let min_iterations = if cfg.trace then 2 else 1 in
  let t_start = Util.now () in
  let checking = ref 0.0 in
  let i = ref 0 in
  while !i < min_iterations || Util.now () -. t_start -. !checking < cfg.seconds do
    (* a traced run alternates untraced and traced iterations, so the
       difference of their verdicts is the tracing overhead; the first
       iteration is also checked against the independent reference *)
    let traced = cfg.trace && !i mod 2 = 1 and check = !i = 0 in
    let t0 = Util.now () in
    (match
       in_child (fun () ->
           one_iteration cfg w ~options ~env:net.Netgen.n_env ~files ~traced ~check)
     with
    | Error e -> attempt r false (fun () -> Printf.sprintf "iteration %d: %s" !i e)
    | Ok it ->
      if traced then add r "verdict_traced" it.it_verdict
      else begin
        add r "verdict_s" it.it_verdict;
        add r "verdict_wall_s" it.it_wall;
        add r "host.steal_s" it.it_steal;
        add r "verdict_cpu_s" it.it_cpu
      end;
      add r "peak_rss_mb" it.it_rss;
      List.iter (fun (k, v) -> add r k v) it.it_samples;
      Trace.absorb it.it_spans;
      let ok =
        expected = Some it.it_digest
        && (match it.it_reference with Some (Error _) -> false | _ -> true)
      in
      attempt r ok (fun () ->
          match it.it_reference with
          | Some (Error e) -> Printf.sprintf "iteration %d: %s" !i e
          | _ ->
            Printf.sprintf "iteration %d: answer digest %s, recorded %s" !i it.it_digest
              (Option.value ~default:"none" expected));
      if check then checking := Util.now () -. t0 -. it.it_wall);
    incr i
  done;
  if cfg.trace then begin
    trace_overhead r ~untraced:"verdict_s" ~traced:"verdict_traced";
    span_metrics r ~gc_root:"verdict" (Trace.spans ())
  end;
  finish cfg w.name r

let answer_rows span answers =
  List.fold_left
    (fun acc (s, a) ->
      if s = span then
        List.fold_left
          (fun acc (x : Questions.answer) -> acc + List.length x.Questions.a_rows)
          acc a
      else acc)
    0 answers

let ha_fabric =
  { name = "ha_fabric"; profile = "NET12"; full_scale = 4.0; tiny_scale = 0.25;
    questions =
      [ ("lint.check", Batfish.check_all);
        ("forwarding.all_pairs", fun bf -> [ Batfish.answer_all_pairs bf ]);
        ("forwarding.multipath", fun bf -> [ Batfish.answer_multipath_consistency bf ]);
        ("forwarding.loops", fun bf -> [ Batfish.answer_loops bf ]) ];
    probe =
      (fun r bf answers ->
        layer_counters r bf;
        add r "forwarding.rows" (float_of_int (answer_rows "forwarding.all_pairs" answers)));
    cold_probes = [];
    reference = differential }

let bgp_fabric =
  { name = "bgp_fabric"; profile = "NET10"; full_scale = 1.5; tiny_scale = 0.25;
    questions =
      [ ("lint.check", Batfish.check_all);
        ("forwarding.routes", fun bf -> [ Batfish.answer_routes bf ]);
        ("dataplane.bgp_status", fun bf -> [ Batfish.answer_bgp_status bf ]);
        ("forwarding.multipath", fun bf -> [ Batfish.answer_multipath_consistency bf ]);
        ("forwarding.loops", fun bf -> [ Batfish.answer_loops bf ]) ];
    probe = (fun r bf _ -> layer_counters r bf);
    cold_probes = [];
    reference = differential }

(* The failure sweep's report is needed by the probe and the cold check;
   the question closure leaves it here. *)
let last_report : Failures.report option ref = ref None

(* Delivered set at [dst] for flows entering at [src], in the base graph's
   manager: the traffic a property checks. *)
let delivered_at q (p : Failures.property) =
  let loc =
    match p.Failures.pr_src with
    | n, Some i -> Fgraph.Src (n, i)
    | n, None -> Fgraph.Fwd n
  in
  match Fgraph.loc_id (Fquery.graph q) loc with
  | None -> Bdd.bot
  | Some id ->
    let sets = Fquery.to_delivered q ~at:p.Failures.pr_dst () in
    Bdd.band (Pktset.man (Fquery.env q)) sets.(id) (Fquery.clean q)

let failures_counters r bf _ =
  layer_counters r bf;
  Option.iter
    (fun rep ->
      let f = float_of_int in
      add r "failures.enumerated" (f rep.Failures.rp_enumerated);
      add r "failures.simulated" (f rep.Failures.rp_simulated);
      add r "failures.atoms" (f rep.Failures.rp_atoms);
      add r "failures.prune_yield"
        (f rep.Failures.rp_pruned /. f (max 1 rep.Failures.rp_enumerated)))
    !last_report

(* The sweep's atom build and scenario classification, as the sweep calls
   them on a fresh session. *)
let atoms_and_classify _ bf =
  let q = Batfish.forwarding bf and dp = Batfish.dataplane bf in
  let g = Fquery.graph q in
  let apt = Trace.span "failures.atoms" (fun () -> Apt.try_build g) in
  let properties, _ = Failures.properties_of ~topo:dp.Dataplane.topo q in
  let anchors =
    List.sort_uniq compare
      (List.concat_map (fun p -> [ fst p.Failures.pr_src; p.Failures.pr_dst ]) properties)
  in
  let man = Pktset.man (Fquery.env q) in
  let restrict =
    List.fold_left (fun acc p -> Bdd.bor man acc (delivered_at q p)) Bdd.bot properties
  in
  let scenarios = Failures.enumerate ~topo:dp.Dataplane.topo ~k:1 in
  ignore
    (Trace.span "failures.classify" (fun () ->
         Failures.classify ~apt ~g ~anchors ~restrict scenarios))

(* The same sweep without atom pruning: the gap this workload keeps
   visible. *)
let noprune_sweep r bf =
  let _, t =
    Util.time (fun () ->
        Trace.span "failures.noprune_sweep" (fun () ->
            Batfish.failure_report ~k:1 ~prune:false bf))
  in
  add r "failures.noprune_sweep_s" t

(* Warm outcomes of every simulated representative against a from-scratch
   recompute of the same scenario. *)
let cold_reference ~env bf =
  match !last_report with
  | None -> Error "no failure report"
  | Some rep ->
    let snap = Batfish.snapshot bf in
    let cold =
      Failures.cold_context ~options:Dataplane.default_options ~env
        ~configs_list:(Batfish.Snapshot.configs snap)
        ~find:(Batfish.Snapshot.find snap) ()
    in
    let bad =
      List.filter
        (fun res ->
          res.Failures.r_rep = res.Failures.r_scenario.Failures.sc_id
          && Failures.cold_outcome cold ~properties:rep.Failures.rp_properties
               res.Failures.r_scenario
             <> res.Failures.r_outcome)
        rep.Failures.rp_results
    in
    if bad = [] then Ok ()
    else
      Error
        (Printf.sprintf "%d scenario(s) differ from the cold recompute, first %s"
           (List.length bad)
           (Failures.scenario_to_string (List.hd bad).Failures.r_scenario))

let dc_failures =
  { name = "dc_failures"; profile = "NET3"; full_scale = 0.5; tiny_scale = 0.5;
    questions =
      [ ("failures.sweep",
         fun bf ->
           let rep, answers = Batfish.answer_failures ~k:1 bf in
           last_report := Some rep;
           answers) ];
    probe = failures_counters;
    cold_probes = [ atoms_and_classify; noprune_sweep ];
    reference = cold_reference }

(* --- ci_service: a writer and a reader sharing one in-process daemon ------ *)

type conn = { ic : in_channel; oc : out_channel }

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let disconnect c = close_out_noerr c.oc

let request c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let call meth params =
  Sjson.to_string (Sjson.Obj [ ("method", Sjson.Str meth); ("params", Sjson.Obj params) ])

let files_json files = Sjson.Obj (List.map (fun (n, t) -> (n, Sjson.Str t)) files)

let query ~snapshot question extra =
  call "query"
    ([ ("snapshot", Sjson.Str snapshot); ("question", Sjson.Str question) ] @ extra)

let result_of resp =
  match Sjson.parse resp with
  | Error e -> Error ("unparseable response: " ^ e)
  | Ok r -> (
    match (Sjson.member "ok" r, Sjson.member "result" r) with
    | Some (Sjson.Bool true), Some res -> Ok res
    | _ ->
      Error
        (match Option.bind (Sjson.member "error" r) Sjson.get_string with
        | Some e -> e
        | None -> "request failed"))

let field name res = Option.bind (Sjson.member name res) Sjson.get_string

let answers_of resp =
  Result.bind (result_of resp) (fun res ->
      let strs v =
        List.filter_map Sjson.get_string (Option.value ~default:[] (Sjson.get_arr v))
      in
      match Option.bind (Sjson.member "answers" res) Sjson.get_arr with
      | None -> Error "response has no answers"
      | Some answers ->
        Ok
          (List.map
             (fun a ->
               let member k = Option.value ~default:Sjson.Null (Sjson.member k a) in
               { Questions.a_title =
                   Option.value ~default:"" (Sjson.get_string (member "title"));
                 a_header = strs (member "header");
                 a_rows =
                   List.map strs (Option.value ~default:[] (Sjson.get_arr (member "rows"))) })
             answers))

(* The edit script: [edits_per_kind] seeded edits of each semantic kind,
   each on its own file, as [(kind, changed files, candidate file set)],
   ordered so that consecutive edits cycle through the kinds. The files are
   the same for every seed, files of the network's most numerous role (file
   names alike but for their digits); the seed picks what each edit changes
   in its file (the neighbor, interface or address). One kind of edit can
   cost 8x more on one file than on another (a loopback that no routing
   protocol carries leaves forwarding alone), so scripts of different seeds
   cost alike only on the same files. With two edits of each kind, an edit
   comes round again only after every other edit of the script, when the
   daemon no longer holds its candidate: as in CI, each edit is new to the
   daemon. *)
let edits_per_kind = 2

let edit_script ~seed (net : Netgen.network) =
  let files = Array.of_list net.Netgen.n_configs in
  let role name = String.of_seq (Seq.filter (fun c -> c < '0' || c > '9') (String.to_seq name)) in
  let counts = Hashtbl.create 16 in
  Array.iter
    (fun (name, _) ->
      Hashtbl.replace counts (role name)
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts (role name))))
    files;
  let common =
    fst
      (Hashtbl.fold
         (fun k n (bk, bn) -> if n > bn || (n = bn && k < bk) then (k, n) else (bk, bn))
         counts ("", 0))
  in
  let targets =
    Array.of_list
      (List.filter
         (fun i -> role (fst files.(i)) = common)
         (List.init (Array.length files) Fun.id))
  in
  let n = Array.length targets in
  let edits kind_index kind =
    let rng = Rng.create ((seed * 31) + kind_index) in
    let first = kind_index * edits_per_kind in
    let rec from pos count =
      if count = edits_per_kind || pos = first + n then []
      else
        let i = targets.(pos mod n) in
        let name, text = files.(i) in
        match Chaos.semantic_edit ~rng ~kind text with
        | None -> from (pos + 1) count
        | Some (text', _) ->
          let cand = Array.copy files in
          cand.(i) <- (name, text');
          (kind, [ (name, text') ], Array.to_list cand) :: from (pos + 1) (count + 1)
    in
    from first 0
  in
  let per_kind = List.mapi edits Chaos.semantic_kinds in
  Array.of_list
    (List.concat
       (List.init edits_per_kind (fun j -> List.filter_map (fun es -> List.nth_opt es j) per_kind)))

(* Seeded reachability queries with pairwise-distinct destinations, so none
   can be answered from the query memo: a random node as the source, a
   random host address inside a random interface subnet as the target. *)
let reach_queries ~seed snap =
  let rng = Rng.create (seed + 1) in
  let nodes = Array.of_list (Batfish.Snapshot.node_names snap) in
  let subnets =
    Array.of_list
      (List.concat_map
         (fun (cfg : Vi.t) ->
           List.filter_map
             (fun (i : Vi.interface) ->
               match i.Vi.if_address with
               | Some (ip, len) when len >= 16 && len <= 30 -> Some (ip, len)
               | _ -> None)
             cfg.Vi.interfaces)
         (Batfish.Snapshot.configs snap))
  in
  let seen = Hashtbl.create 1024 in
  let rec next () =
    let ip, len = Rng.pick rng subnets in
    let a, b, c, d = Ipv4.to_octets ip in
    let base = (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d in
    let size = 1 lsl (32 - len) in
    let host = (base land lnot (size - 1)) + 1 + Rng.int rng (size - 2) in
    let dst =
      Printf.sprintf "%d.%d.%d.%d/32" ((host lsr 24) land 255) ((host lsr 16) land 255)
        ((host lsr 8) land 255) (host land 255)
    in
    if Hashtbl.mem seen dst then next ()
    else begin
      Hashtbl.add seen dst ();
      (Rng.pick rng nodes, dst)
    end
  in
  next

type read = { r_src : string; r_dst : string; r_resp : string }

let reach_line ~snapshot (src, dst) =
  query ~snapshot "reachability" [ ("src", Sjson.Str src); ("dst_prefix", Sjson.Str dst) ]

type write = {
  w_edit : int;  (** index into the edit script *)
  w_update : string;
  w_answers : (string * string) list;  (** question, response *)
  w_unload : string;
}

let ci_questions = [ "check"; "multipath"; "all_pairs" ]

(* Requests the reader makes after each edit: memo hits and never-asked
   reachability queries, in turn. *)
let reads_per_edit = 16

(* The mean over the script's edits of the [q]-quantile of each edit's
   verdicts (samples named [prefix:index]), so every edit weighs alike. *)
let edit_verdict r ~n_script ~prefix q =
  let per_edit =
    List.filter_map
      (fun k ->
        match get r (Printf.sprintf "%s:%d" prefix k) with
        | [] -> None
        | xs -> Some (Util.quantile xs q))
      (List.init n_script Fun.id)
  in
  List.fold_left ( +. ) 0.0 per_edit /. float_of_int (max 1 (List.length per_edit))

let ci_service cfg =
  let r = new_run () in
  let scale = match cfg.scale with Full -> 1.5 | Tiny -> 0.5 in
  let net = (Util.profile "NET8").Netgen.p_make scale in
  let files = net.Netgen.n_configs in
  (* the service protocol loads configuration files only, so the references
     analyze the same files without the generator's external environment *)
  let env = Dp_env.empty in
  let script = edit_script ~seed:cfg.seed net in
  let n_script = Array.length script in
  let next_reach = reach_queries ~seed:cfg.seed (Batfish.Snapshot.of_texts files) in
  (* the reader alternates between a few hot queries, answered from the
     query memo after their first time, and queries it has never asked *)
  let hot = Array.init 8 (fun _ -> next_reach ()) in
  (* set-up: start the daemon, preload the base snapshot warm, and ask each
     hot query once *)
  let start i =
    let socket =
      Filename.concat cfg.out_dir (Printf.sprintf "ci-%d-%d.sock" (Unix.getpid ()) i)
    in
    let svc = Service.create ~domains:cfg.domains () in
    let server = Thread.create (fun () -> Service.serve ~install_signals:false ~socket svc) () in
    let rec wait n =
      if Sys.file_exists socket then ()
      else if n = 0 then failwith "service socket never appeared"
      else (Thread.delay 0.005; wait (n - 1))
    in
    wait 2000;
    let c = connect socket in
    let base =
      match result_of (request c (call "load" [ ("files", files_json files) ])) with
      | Ok res -> Option.get (field "fingerprint" res)
      | Error e -> failwith ("load: " ^ e)
    in
    Array.iter (fun q -> ignore (request c (reach_line ~snapshot:base q))) hot;
    (svc, server, socket, c, base)
  in
  let stop (svc, server, _, c, _) =
    disconnect c;
    Service.stop svc;
    Thread.join server
  in
  (* all but the last set-up run in child processes: memory a stopped
     daemon leaves behind must not weigh on the one that is measured. Each
     set-up also gives the preloaded daemon's footprint as a sample of
     [peak_rss_mb]; what the requests add is the layer metric
     [service.rss_growth_mb]. A set-up is timed as a verdict is: wall time
     less steal. *)
  let timed_start i =
    let daemon, _, dt, _ = Util.time_unstolen (fun () -> start i) in
    (daemon, dt)
  in
  for i = 1 to 2 do
    match
      in_child (fun () ->
          let daemon, dt = timed_start i in
          let rss = Util.peak_rss_mb () in
          stop daemon;
          (dt, rss))
    with
    | Ok (dt, rss) ->
      add r "setup_s" dt;
      add r "peak_rss_mb" rss
    | Error e -> attempt r false (fun () -> "set-up: " ^ e)
  done;
  let ((svc, _, socket, c0, base) as daemon), dt = timed_start 3 in
  add r "setup_s" dt;
  let rss_ready = Util.peak_rss_mb () in
  add r "peak_rss_mb" rss_ready;
  let pool_jobs () =
    match result_of (request c0 (call "stats" [])) with
    | Ok res ->
      Option.value ~default:0 (Option.bind (Sjson.member "pool_jobs" res) Sjson.get_int)
    | Error _ -> 0
  in
  let writer = connect socket and reader = connect socket in
  let reads = ref [] and writes = ref [] in
  (* One edit on the writer's connection: update the base, ask the CI
     questions of the candidate, unload it. Returns the edit verdict, from
     sending the update to the last CI answer, as wall time, wall time less
     steal, and steal. *)
  let edit k =
    let _, changed, _ = script.(k) in
    let (cand, upd, answers), wall, dt, stolen =
      Util.time_unstolen @@ fun () ->
      Trace.span "edit" (fun () ->
          let upd =
            Trace.span "service.update" (fun () ->
                request writer
                  (call "update" [ ("snapshot", Sjson.Str base); ("files", files_json changed) ]))
          in
          let cand =
            match result_of upd with
            | Ok res -> Option.value ~default:"" (field "fingerprint" res)
            | Error _ -> ""
          in
          ( cand,
            upd,
            List.map
              (fun q ->
                (q, Trace.span "service.query" (fun () -> request writer (query ~snapshot:cand q []))))
              ci_questions ))
    in
    let unl =
      Trace.span "service.unload" (fun () ->
          request writer (call "unload" [ ("snapshot", Sjson.Str cand) ]))
    in
    writes := { w_edit = k; w_update = upd; w_answers = answers; w_unload = unl } :: !writes;
    (wall, dt, stolen)
  in
  (* One request on the reader's connection, against the base. *)
  let read n =
    let hit = n mod 2 = 0 in
    let src, dst = if hit then hot.(n / 2 mod Array.length hot) else next_reach () in
    let span = if hit then "service.query_hit" else "service.query_reach" in
    let resp, dt =
      Util.time (fun () ->
          Trace.span span (fun () -> request reader (reach_line ~snapshot:base (src, dst))))
    in
    add r "query_latency" dt;
    reads := { r_src = src; r_dst = dst; r_resp = resp } :: !reads
  in
  (* The two clients take turns: an edit, then the reader's requests. They
     do not overlap, because an update-derived candidate shares its base's
     BDD manager while the daemon locks each snapshot on its own, so a base
     query run beside candidate work can fail. A traced run traces every
     other pass over the edit script: the verdict difference between traced
     and untraced passes is the tracing overhead. *)
  let stats0 = Service.stats svc and jobs0 = pool_jobs () in
  let min_edits = if cfg.trace then 2 * n_script else n_script in
  let edits = ref 0 and n_reads = ref 0 in
  let cpu0 = Util.cpu_time () and t0 = Util.now () in
  while Util.now () -. t0 < cfg.seconds || !edits < min_edits do
    let k = !edits mod n_script in
    let traced = cfg.trace && !edits / n_script mod 2 = 1 in
    Trace.enabled := traced;
    let wall, dt, stolen = edit k in
    add r (Printf.sprintf "%s:%d" (if traced then "verdict_traced" else "verdict_s") k) dt;
    if not traced then begin
      add r "verdict_wall_s" wall;
      add r "host.steal_s" stolen
    end;
    for _ = 1 to reads_per_edit do
      read !n_reads;
      incr n_reads
    done;
    Trace.enabled := false;
    incr edits
  done;
  let elapsed = Util.now () -. t0 in
  (* the daemon's CPU per edit, the reader's share included *)
  set r "verdict_cpu_s" ((Util.cpu_time () -. cpu0) /. float_of_int !edits) !edits;
  set r "verdict_s" (edit_verdict r ~n_script ~prefix:"verdict_s" 0.25) !edits;
  set r "service.requests_per_s"
    (float_of_int ((!edits * (2 + List.length ci_questions)) + !n_reads) /. elapsed)
    !edits;
  set r "service.rss_growth_mb" (Util.peak_rss_mb () -. rss_ready) 1;
  let stats1 = Service.stats svc and jobs1 = pool_jobs () in
  disconnect writer;
  disconnect reader;
  stop daemon;
  let lat = get r "query_latency" in
  set r "service.query_p50_s" (Util.percentile lat 0.5) (List.length lat);
  set r "service.query_p99_s" (Util.percentile lat 0.99) (List.length lat);
  let delta name f = set r name (float_of_int (f stats1 - f stats0)) 1 in
  delta "service.computed" (fun s -> s.Service.st_computed);
  delta "service.errors" (fun s -> s.Service.st_errors);
  set r "par.jobs" (float_of_int (jobs1 - jobs0)) 1;
  (* checks, after timing: the reader against a direct session of the base,
     each candidate against a from-scratch analysis of its files. The direct
     session replays the daemon's base: warm memo first, then the writer's
     updates (timed as core.update), then the reader's requests. *)
  let options = { Dataplane.default_options with domains = cfg.domains } in
  let direct = Batfish.init ~options ~env (Batfish.Snapshot.of_texts files) in
  let reach (src, dst) =
    Util.digest_answers
      [ Batfish.answer_reachability direct ~src:(src, None) ~dst_ip:(Prefix.of_string dst) () ]
  in
  Array.iter (fun q -> ignore (reach q)) hot;
  let check_answers what resp expected =
    let got =
      Result.map
        (fun a -> Util.digest_answers (if cfg.corrupt then corrupt_answers a else a))
        (answers_of resp)
    in
    attempt r (got = Ok expected) (fun () ->
        match got with
        | Error e -> Printf.sprintf "%s: %s" what e
        | Ok d -> Printf.sprintf "%s: digest %s, reference %s" what d expected)
  in
  let used = List.sort_uniq compare (List.map (fun w -> w.w_edit) !writes) in
  List.iter
    (fun k ->
      let kind, changed, cand_files = script.(k) in
      Trace.enabled := cfg.trace;
      let _, rep = Trace.span "core.update" (fun () -> Batfish.update ~files:changed direct) in
      Trace.enabled := false;
      let f = float_of_int in
      add r "config.files_reparsed" (f rep.Batfish.up_files_reparsed);
      add r "dataplane.nodes_simulated" (f rep.Batfish.up_nodes_simulated);
      add r "dataplane.nodes_reused" (f rep.Batfish.up_nodes_reused);
      add r "dataplane.frontier_nodes" (f rep.Batfish.up_frontier_size);
      add r "forwarding.rebuilds" (if rep.Batfish.up_forwarding_rebuilt then 1.0 else 0.0);
      let scratch = Batfish.init ~env (Batfish.Snapshot.of_texts cand_files) in
      let refs =
        [ ("check", Util.digest_answers (Batfish.check_all scratch));
          ("multipath", Util.digest_answers [ Batfish.answer_multipath_consistency scratch ]);
          ("all_pairs", Util.digest_answers [ Batfish.answer_all_pairs scratch ]) ]
      in
      List.iter
        (fun w ->
          if w.w_edit = k then begin
            attempt r (Result.is_ok (result_of w.w_update)) (fun () -> kind ^ ": update failed");
            List.iter
              (fun (q, resp) ->
                check_answers (Printf.sprintf "%s edit, %s" kind q) resp (List.assoc q refs))
              w.w_answers;
            attempt r (Result.is_ok (result_of w.w_unload)) (fun () -> kind ^ ": unload failed")
          end)
        !writes)
    used;
  let hits0, misses0 = Option.value ~default:(0, 0) (Batfish.memo_stats direct) in
  List.iter
    (fun rd ->
      check_answers
        (Printf.sprintf "reachability %s %s" rd.r_src rd.r_dst)
        rd.r_resp (reach (rd.r_src, rd.r_dst)))
    (List.rev !reads);
  let hits, misses = Option.value ~default:(0, 0) (Batfish.memo_stats direct) in
  set r "forwarding.memo_hits" (float_of_int (hits - hits0)) 1;
  set r "forwarding.memo_misses" (float_of_int (misses - misses0)) 1;
  Batfish.shutdown direct;
  let man_nodes = snd (Bdd.global_stats ()) in
  set r "bdd.nodes" (float_of_int man_nodes) 1;
  if cfg.trace then begin
    set r "trace.overhead_s"
      (edit_verdict r ~n_script ~prefix:"verdict_traced" 0.5
      -. edit_verdict r ~n_script ~prefix:"verdict_s" 0.5)
      !edits;
    let spans = Trace.spans () in
    span_metrics r ~gc_root:"edit" spans;
    let upd = get r "service.update_s" and core = get r "core.update_s" in
    if upd <> [] && core <> [] then
      set r "service.overhead_s" (Util.median upd -. Util.median core) (List.length upd)
  end;
  finish cfg "ci_service" r

let all = [ "ha_fabric"; "bgp_fabric"; "ci_service"; "dc_failures" ]

let run cfg name =
  Trace.reset ();
  match name with
  | "ha_fabric" -> run_batch cfg ha_fabric
  | "bgp_fabric" -> run_batch cfg bgp_fabric
  | "ci_service" -> ci_service cfg
  | "dc_failures" -> run_batch cfg dc_failures
  | w -> invalid_arg ("unknown workload " ^ w)

let batches = [ ha_fabric; bgp_fabric; dc_failures ]

(* The digest a serial session computes on one input variant; what
   [Digests] records. *)
let reference_digest scale (w : batch) variant =
  let p = Util.profile w.profile in
  let net = p.Netgen.p_make (match scale with Full -> w.full_scale | Tiny -> w.tiny_scale) in
  let files = Util.variant_files variant net in
  let bf = Batfish.init ~env:net.Netgen.n_env (Batfish.Snapshot.of_texts files) in
  let answers = List.concat_map (fun (_, ask) -> ask bf) w.questions in
  Batfish.shutdown bf;
  Util.digest_answers answers

(* All-pairs oracle: the batched engine (one forward pass per group of
   interchangeable sources, one witness per distinct delivered set, one
   rendering per distinct (destination, witness) pair) must answer exactly
   what a row-by-row sweep answers, on every profile and under chaos-seeded
   mutations, serially and on a worker pool. *)

let check = Alcotest.check

(* The row-by-row reference: one forward pass per start, delivered sets
   unioned per destination node by scanning every location, and one
   [Pktset.to_packet] plus one [Packet.to_string] per row. *)
let reference_rows q =
  let e = Fquery.env q in
  let man = Pktset.man e in
  let g = Fquery.graph q in
  List.concat_map
    (fun (node, iface) ->
      let loc =
        match iface with
        | Some i -> Fgraph.Src (node, i)
        | None -> Fgraph.Fwd node
      in
      match Fgraph.loc_id g loc with
      | None -> []
      | Some id ->
        let sets = Freach.forward g [ (id, Fquery.clean q) ] in
        let order = ref [] in
        let by_node = Hashtbl.create 16 in
        Array.iteri
          (fun i l ->
            match l with
            | Fgraph.Accept n | Fgraph.Dst (n, _) -> (
              match Hashtbl.find_opt by_node n with
              | Some r -> r := Bdd.bor man !r sets.(i)
              | None ->
                order := n :: !order;
                Hashtbl.add by_node n (ref sets.(i)))
            | Fgraph.Src _ | Fgraph.Fwd _ | Fgraph.Pre_out _ | Fgraph.Dropped _ -> ())
          g.Fgraph.locs;
        let prefs = Pktset.standard_prefs e () in
        List.filter_map
          (fun n ->
            let set = !(Hashtbl.find by_node n) in
            if Bdd.is_bot set then None
            else
              Some
                [ node; Option.value iface ~default:"-"; n;
                  (match Pktset.to_packet e ~prefs set with
                  | Some p -> Packet.to_string p
                  | None -> "-") ])
          (List.rev !order))
    (Fquery.default_starts q)

let answer_rows ?pool q = (Questions.all_pairs_reachability ?pool q).Questions.a_rows

(* Serial and pooled answers against the reference. The reference runs
   last, so the engine under test always starts from a manager the
   reference has not warmed. *)
let compare_with_reference ~where ~pool q =
  let serial = answer_rows q in
  let pooled = answer_rows ~pool q in
  let reference = reference_rows q in
  if serial <> reference then
    Alcotest.failf "%s: serial all-pairs differs from the row-by-row reference" where;
  if pooled <> reference then
    Alcotest.failf "%s: pooled all-pairs differs from the row-by-row reference" where

let with_pool f =
  let pool = Par.Pool.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) (fun () -> f pool)

let session (net : Netgen.network) =
  Batfish.init ~env:net.Netgen.n_env (Batfish.Snapshot.of_texts net.Netgen.n_configs)

(* >= 100 chaos-seeded snapshots across every Netgen profile. *)
let seeds_per_profile = 8

let chaos_identity () =
  with_pool (fun pool ->
      let compared = ref 0 in
      List.iteri
        (fun bi (p : Netgen.profile) ->
          for seed = 0 to seeds_per_profile - 1 do
            let where = Printf.sprintf "%s seed %d" p.Netgen.p_name seed in
            let rng = Rng.create ((7919 * bi) + seed) in
            let mutated, _ =
              Chaos.mutate_network ~rng ~mutations:(1 + Rng.int rng 2)
                (p.Netgen.p_make 0.25)
            in
            match Batfish.try_forwarding (session mutated) with
            | Error _ -> () (* mutation broke graph construction; skip the seed *)
            | Ok q ->
              incr compared;
              compare_with_reference ~where ~pool q
          done)
        Netgen.profiles;
      check Alcotest.bool "compared >= 100 seeded snapshots" true (!compared >= 100))

(* Every profile, un-mutated: the deterministic half of the oracle. *)
let profile_identity () =
  with_pool (fun pool ->
      List.iter
        (fun (p : Netgen.profile) ->
          match Batfish.try_forwarding (session (p.Netgen.p_make 0.5)) with
          | Error _ -> Alcotest.failf "%s: forwarding graph failed" p.Netgen.p_name
          | Ok q -> compare_with_reference ~where:p.Netgen.p_name ~pool q)
        Netgen.profiles)

(* The HA ToR-group fabric: each access switch has several identically
   configured edge ports, so grouping must fire on a default session and
   still answer row for row. Rows that carry the same destination and
   example share one rendered tail. *)
let grouping_without_partition () =
  let net = Netgen.clos_ha ~ports:4 ~name:"fatleaf" ~spines:4 ~slots:4 ~members:4 () in
  let q = Batfish.forwarding (session net) in
  let starts = Fquery.default_starts q in
  let groups = Fquery.start_groups q starts in
  check Alcotest.bool "fewer groups than starts" true
    (List.length groups < List.length starts);
  check Alcotest.int "groups cover every start once" (List.length starts)
    (List.length (List.concat groups));
  with_pool (fun pool -> compare_with_reference ~where:"fatleaf" ~pool q);
  let rows = answer_rows q in
  let tails = Hashtbl.create 64 in
  List.iter
    (fun row ->
      let tail = List.tl (List.tl row) in
      match Hashtbl.find_opt tails tail with
      | Some shared ->
        if shared != tail then Alcotest.fail "equal row tails are not shared"
      | None -> Hashtbl.add tails tail tail)
    rows;
  check Alcotest.bool "fewer distinct tails than rows" true
    (Hashtbl.length tails < List.length rows)

let suites =
  [ ( "compress",
      [ Alcotest.test_case "profiles match reference" `Quick profile_identity;
        Alcotest.test_case "grouping fires ungated" `Quick grouping_without_partition;
        Alcotest.test_case "chaos identity (>=100 seeds)" `Slow chaos_identity ] ) ]

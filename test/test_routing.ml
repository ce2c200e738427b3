(* Tests for topology inference, coloring, RIBs, comparators, and policy. *)

let check = Alcotest.check

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* --- Coloring --- *)

let coloring_valid =
  qtest "greedy coloring is proper"
    QCheck.(pair (int_range 1 40) (list (pair (int_bound 39) (int_bound 39))))
    (fun (n, raw_edges) ->
      let edges = List.map (fun (a, b) -> (a mod n, b mod n)) raw_edges in
      let coloring = Coloring.greedy ~n edges in
      Coloring.valid ~n edges coloring)

let coloring_deterministic =
  qtest "coloring deterministic"
    QCheck.(pair (int_range 1 20) (list (pair (int_bound 19) (int_bound 19))))
    (fun (n, raw_edges) ->
      let edges = List.map (fun (a, b) -> (a mod n, b mod n)) raw_edges in
      Coloring.greedy ~n edges = Coloring.greedy ~n edges)

let coloring_units () =
  (* Triangle needs 3 colors; path needs 2. *)
  let tri = Coloring.greedy ~n:3 [ (0, 1); (1, 2); (2, 0) ] in
  check Alcotest.int "triangle" 3 (Coloring.count tri);
  let path = Coloring.greedy ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  check Alcotest.int "path" 2 (Coloring.count path);
  let classes = Coloring.classes path in
  check Alcotest.int "classes partition" 4
    (Array.fold_left (fun acc c -> acc + List.length c) 0 classes)

(* --- SCC --- *)

let scc_units () =
  (* 0 -> 1 -> 2 -> 0 is one component; 3 alone. *)
  let adj = [| [ 1 ]; [ 2 ]; [ 0 ]; [ 0 ] |] in
  let comp = Scc.compute ~n:4 adj in
  check Alcotest.bool "cycle same comp" true (comp.(0) = comp.(1) && comp.(1) = comp.(2));
  check Alcotest.bool "3 separate" true (comp.(3) <> comp.(0));
  let g = Scc.groups comp in
  check Alcotest.int "two groups" 2 (Array.length g)

let scc_line () =
  (* A long path should not blow the stack and yields n components. *)
  let n = 50_000 in
  let adj = Array.init n (fun i -> if i + 1 < n then [ i + 1 ] else []) in
  let comp = Scc.compute ~n adj in
  let k = Array.fold_left (fun m c -> max m (c + 1)) 0 comp in
  check Alcotest.int "n components" n k

(* [Scc.first_cycle] against the search it replaced in loop detection: a
   DFS over every simple path from the start, with no visited set. *)
let exhaustive_cycle comp out start =
  let rec dfs path v =
    if v = start && path <> [] then Some (List.rev path)
    else if List.exists (fun (w, _) -> w = v) path && v <> start then None
    else
      List.fold_left
        (fun acc ((_, w) as e) ->
          match acc with
          | Some _ -> acc
          | None -> if comp.(w) = comp.(start) then dfs ((v, e) :: path) w else None)
        None (out v)
  in
  dfs [] start

let scc_first_cycle_model =
  qtest ~count:500 "first_cycle = exhaustive simple-path search"
    QCheck.(pair (int_range 1 9) (list_of_size Gen.(int_bound 30) (pair (int_bound 8) (int_bound 8))))
    (fun (n, raw) ->
      (* edges carry their index, so parallel edges are told apart *)
      let edges = List.mapi (fun id (a, b) -> (a mod n, (id, b mod n))) raw in
      let out v = List.filter_map (fun (a, e) -> if a = v then Some e else None) edges in
      let comp = Scc.compute ~n (Array.init n (fun v -> List.map snd (out v))) in
      let first_cycle = Scc.first_cycle comp ~out ~target:snd in
      List.for_all
        (fun v -> first_cycle v = exhaustive_cycle comp out v)
        (List.init n Fun.id))

(* --- L3 topology --- *)

let mini_configs () =
  let c1, _ =
    Parse.parse_config
      "hostname r1\ninterface e1\n ip address 10.0.12.1 255.255.255.252\ninterface e2\n ip address 10.0.13.1 255.255.255.252\n"
  in
  let c2, _ =
    Parse.parse_config
      "hostname r2\ninterface e1\n ip address 10.0.12.2 255.255.255.252\n"
  in
  let c3, _ =
    Parse.parse_config
      "hostname r3\ninterface e1\n ip address 10.0.13.2 255.255.255.252\ninterface e9\n shutdown\n ip address 10.0.99.1 255.255.255.0\n"
  in
  [ c1; c2; c3 ]

let l3_units () =
  let topo = L3.infer (mini_configs ()) in
  check Alcotest.int "nodes" 3 (List.length (L3.nodes topo));
  let nbrs = L3.neighbors topo ~node:"r1" ~iface:"e1" in
  check Alcotest.int "r1.e1 has one neighbor" 1 (List.length nbrs);
  check Alcotest.string "neighbor is r2" "r2" (List.hd nbrs).L3.ep_node;
  let edges = L3.node_edges topo in
  check Alcotest.int "two links" 2 (List.length edges);
  (* shutdown interface contributes nothing *)
  check Alcotest.bool "no owner for disabled" true
    (L3.owner_of_ip topo (Ipv4.of_string "10.0.99.1") = None);
  check Alcotest.bool "owner lookup" true
    (match L3.owner_of_ip topo (Ipv4.of_string "10.0.12.2") with
     | Some ep -> ep.L3.ep_node = "r2"
     | None -> false)

(* --- RIB --- *)

let rib_make () =
  Rib.create ~prefer:Cmp.main_prefer ~multipath_equal:Cmp.main_multipath_equal
    ~max_paths:4 ()

let p = Prefix.of_string

let rib_units () =
  let rib = rib_make () in
  let static1 =
    Route.static ~net:(p "10.0.0.0/8") ~nh:(Route.Nh_ip (Ipv4.of_string "1.1.1.1")) ~ad:1 ~tag:0
  in
  let ospf1 =
    Route.ospf ~proto:Route_proto.Ospf ~net:(p "10.0.0.0/8")
      ~nh:(Route.Nh_ip (Ipv4.of_string "2.2.2.2")) ~metric:20 ~area:0
  in
  Rib.merge rib ospf1;
  check Alcotest.int "ospf best" 1 (List.length (Rib.best rib (p "10.0.0.0/8")));
  Rib.merge rib static1;
  (* static has lower admin distance *)
  (match Rib.best rib (p "10.0.0.0/8") with
   | [ r ] -> check Alcotest.bool "static wins" true (r.Route.protocol = Route_proto.Static)
   | _ -> Alcotest.fail "expected single best");
  let added, removed = Rib.take_delta rib in
  (* net effect of the two merges: static added (ospf was added then replaced) *)
  check Alcotest.int "one added" 1 (List.length added);
  check Alcotest.int "none removed" 0 (List.length removed);
  Rib.withdraw rib static1;
  (match Rib.best rib (p "10.0.0.0/8") with
   | [ r ] -> check Alcotest.bool "ospf back" true (r.Route.protocol = Route_proto.Ospf)
   | _ -> Alcotest.fail "expected ospf");
  let added, removed = Rib.take_delta rib in
  check Alcotest.int "ospf added" 1 (List.length added);
  check Alcotest.int "static removed" 1 (List.length removed)

let rib_multipath () =
  let rib =
    Rib.create ~prefer:Cmp.ospf_prefer ~multipath_equal:Cmp.ospf_multipath_equal
      ~max_paths:4 ()
  in
  let r nh m =
    Route.ospf ~proto:Route_proto.Ospf ~net:(p "10.1.0.0/16")
      ~nh:(Route.Nh_ip (Ipv4.of_string nh)) ~metric:m ~area:0
  in
  Rib.merge rib (r "1.1.1.1" 10);
  Rib.merge rib (r "2.2.2.2" 10);
  Rib.merge rib (r "3.3.3.3" 20);
  check Alcotest.int "ecmp 2" 2 (List.length (Rib.best rib (p "10.1.0.0/16")));
  Rib.merge rib (r "4.4.4.4" 5);
  (match Rib.best rib (p "10.1.0.0/16") with
   | [ best ] ->
     check Alcotest.bool "lower metric wins" true
       (Route.next_hop_ip best = Some (Ipv4.of_string "4.4.4.4"))
   | _ -> Alcotest.fail "expected one best");
  check Alcotest.int "candidates retained" 4
    (List.length (Rib.candidates rib))

let rib_lpm () =
  let rib = rib_make () in
  let add net =
    Rib.merge rib (Route.static ~net:(p net) ~nh:Route.Nh_discard ~ad:1 ~tag:0)
  in
  add "10.0.0.0/8";
  add "10.1.0.0/16";
  add "0.0.0.0/0";
  (match Rib.lookup rib (Ipv4.of_string "10.1.2.3") with
   | Some (pfx, _) -> check Alcotest.string "lpm /16" "10.1.0.0/16" (Prefix.to_string pfx)
   | None -> Alcotest.fail "expected match");
  (match Rib.lookup rib (Ipv4.of_string "192.168.1.1") with
   | Some (pfx, _) -> check Alcotest.string "default" "0.0.0.0/0" (Prefix.to_string pfx)
   | None -> Alcotest.fail "expected default")

(* [Rib.lookup] against the fold over every matching prefix it replaced:
   the deepest match whose best set is non-empty. *)
let rib_lookup_model =
  let nets = [| p "0.0.0.0/0"; p "10.0.0.0/8"; p "10.1.0.0/16"; p "10.1.1.0/24";
                p "10.1.1.1/32"; p "10.2.0.0/16" |] in
  let hops = [| Route.Nh_discard; Route.Nh_ip 1; Route.Nh_ip 2 |] in
  let ips = [| "10.1.1.1"; "10.1.1.2"; "10.1.2.3"; "10.2.0.1"; "10.3.0.1"; "11.0.0.1" |] in
  qtest "lookup = all_matches fold"
    QCheck.(
      pair
        (list (triple bool (int_bound (Array.length nets - 1)) (int_bound 2)))
        (int_bound (Array.length ips - 1)))
    (fun (ops, i) ->
      let rib = rib_make () in
      List.iter
        (fun (add, n, h) ->
          let r = Route.static ~net:nets.(n) ~nh:hops.(h) ~ad:1 ~tag:0 in
          if add then Rib.merge rib r else Rib.withdraw rib r)
        ops;
      let ip = Ipv4.of_string ips.(i) in
      let trie = Rib.fold_best Prefix_trie.add rib Prefix_trie.empty in
      let oracle =
        List.fold_left
          (fun acc (p, best) -> if best <> [] then Some (p, best) else acc)
          None (Prefix_trie.all_matches ip trie)
      in
      Rib.lookup rib ip = oracle)

(* [Route.same] and [Route.compare_ignoring_arrival] against the record-copy
   definitions they replaced, on routes drawn from two or three values per
   field so that ties are common. *)
let route_of_picks = function
  | [ net; proto; admin; metric; nh; tag; attrs; arrival; peer; rid; area ] ->
    { Route.net = [| p "10.0.0.0/8"; p "10.0.0.0/16"; p "9.0.0.0/8" |].(net);
      protocol = [| Route_proto.Ebgp; Route_proto.Ibgp; Route_proto.Static |].(proto);
      admin; metric;
      next_hop = [| Route.Nh_ip 1; Route.Nh_iface "e0"; Route.Nh_discard |].(nh);
      tag;
      attrs =
        [| None; Some (Attrs.make ~as_path:[ 65001 ] ());
           Some (Attrs.make ~as_path:[ 65001; 65002 ] ~communities:[ 7 ] ()) |].(attrs);
      arrival; from_peer = peer; from_rid = rid; ospf_area = area }
  | _ -> assert false

(* The second route re-picks each field of the first with probability 1/3,
   so pairs that differ in a single field are common. *)
let route_pair_arb =
  QCheck.make
    ~print:(fun (a, b) -> Route.to_string a ^ " / " ^ Route.to_string b)
    QCheck.Gen.(
      map2
        (fun picks repicks ->
          ( route_of_picks picks,
            route_of_picks (List.map2 (fun p r -> if r < 3 then r else p) picks repicks) ))
        (list_repeat 11 (int_bound 2))
        (list_repeat 11 (int_bound 8)))

let route_same_model =
  qtest ~count:1000 "same = arrival-zeroed equality" route_pair_arb (fun (a, b) ->
      Route.same a b = ({ a with Route.arrival = 0 } = { b with Route.arrival = 0 }))

let route_order_model =
  qtest ~count:1000 "compare_ignoring_arrival = arrival-zeroed compare" route_pair_arb
    (fun (a, b) ->
      let sign x = compare x 0 in
      sign (Route.compare_ignoring_arrival a b)
      = sign (compare { a with Route.arrival = 0 } { b with Route.arrival = 0 }))

let delta_cancellation () =
  let rib = rib_make () in
  let r = Route.static ~net:(p "10.0.0.0/8") ~nh:Route.Nh_discard ~ad:1 ~tag:0 in
  Rib.merge rib r;
  Rib.withdraw rib r;
  let added, removed = Rib.take_delta rib in
  check Alcotest.int "no net adds" 0 (List.length added);
  check Alcotest.int "no net removes" 0 (List.length removed);
  check Alcotest.bool "not dirty" false (Rib.dirty rib)

(* --- BGP decision process --- *)

let mk_bgp ?(proto = Route_proto.Ebgp) ?(lp = 100) ?(path = [ 65002 ]) ?(med = 0)
    ?(weight = 0) ?(arrival = 0) ?(peer = "9.9.9.1") ?(rid = "9.9.9.1") ?(origin = Vi.Origin_igp) () =
  Route.bgp ~proto ~net:(p "10.0.0.0/8")
    ~nh:(Route.Nh_ip (Ipv4.of_string "9.9.9.9"))
    ~attrs:(Attrs.make ~local_pref:lp ~as_path:path ~med ~weight ~origin ())
    ~arrival ~from_peer:(Ipv4.of_string peer) ~from_rid:(Ipv4.of_string rid)

let no_igp _ = Some 0

let bgp_decision () =
  let cmp = Cmp.bgp_prefer ~igp_cost:no_igp in
  let better a b = cmp a b < 0 in
  check Alcotest.bool "weight" true
    (better (mk_bgp ~weight:100 ()) (mk_bgp ~lp:999 ()));
  check Alcotest.bool "local pref" true (better (mk_bgp ~lp:200 ()) (mk_bgp ~lp:100 ()));
  check Alcotest.bool "as path" true
    (better (mk_bgp ~path:[ 65002 ] ()) (mk_bgp ~path:[ 65002; 65003 ] ()));
  check Alcotest.bool "origin" true
    (better (mk_bgp ~origin:Vi.Origin_igp ()) (mk_bgp ~origin:Vi.Origin_incomplete ()));
  check Alcotest.bool "med" true (better (mk_bgp ~med:10 ()) (mk_bgp ~med:20 ()));
  check Alcotest.bool "ebgp over ibgp" true
    (better (mk_bgp ~proto:Route_proto.Ebgp ()) (mk_bgp ~proto:Route_proto.Ibgp ()));
  (* the logical clock: older route preferred *)
  check Alcotest.bool "older wins" true
    (better (mk_bgp ~arrival:1 ~rid:"9.9.9.2" ()) (mk_bgp ~arrival:2 ()));
  (* without arrival, falls to router id *)
  let cmp_noclock = Cmp.bgp_prefer ~use_arrival:false ~igp_cost:no_igp in
  check Alcotest.bool "rid tiebreak" true
    (cmp_noclock (mk_bgp ~arrival:2 ~rid:"1.1.1.1" ()) (mk_bgp ~arrival:1 ~rid:"2.2.2.2" ()) < 0)

let bgp_total_order =
  qtest "bgp comparator antisymmetric"
    QCheck.(
      pair
        (quad (int_bound 300) (int_bound 3) (int_bound 50) (int_bound 2))
        (quad (int_bound 300) (int_bound 3) (int_bound 50) (int_bound 2)))
    (fun ((lp1, pl1, med1, ar1), (lp2, pl2, med2, ar2)) ->
      let r1 = mk_bgp ~lp:lp1 ~path:(List.init pl1 (fun i -> 65000 + i)) ~med:med1 ~arrival:ar1 () in
      let r2 = mk_bgp ~lp:lp2 ~path:(List.init pl2 (fun i -> 65000 + i)) ~med:med2 ~arrival:ar2 () in
      let cmp = Cmp.bgp_prefer ~igp_cost:no_igp in
      compare (cmp r1 r2) 0 = compare 0 (cmp r2 r1))

(* --- Attrs interning --- *)

let interning () =
  Attrs.clear_pools ();
  let a = Attrs.make ~as_path:[ 65001; 65002 ] ~communities:[ 5; 3; 5 ] () in
  let b = Attrs.make ~as_path:[ 65001; 65002 ] ~communities:[ 3; 5 ] () in
  check Alcotest.bool "interned equal" true (a == b);
  check Alcotest.bool "communities sorted" true (a.Attrs.communities = [ 3; 5 ]);
  let distinct, requests = Attrs.pool_stats () in
  check Alcotest.int "one distinct" 1 distinct;
  check Alcotest.bool "two requests" true (requests >= 2);
  let c = Attrs.update ~local_pref:200 a in
  check Alcotest.bool "update differs" true (not (Attrs.equal a c))

(* --- Policy evaluation --- *)

let policy_cfg () =
  let text =
    String.concat "\n"
      [ "hostname r1";
        "ip prefix-list TENS seq 5 permit 10.0.0.0/8 le 24";
        "ip prefix-list EXACT seq 5 permit 192.168.0.0/16";
        "ip community-list standard CL permit 65001:100";
        "ip as-path access-list AP permit _65002_";
        "route-map POL permit 10";
        " match ip address prefix-list TENS";
        " set local-preference 250";
        " set community 65001:999 additive";
        "route-map POL deny 20";
        "route-map AS_FILTER permit 10";
        " match as-path AP";
        "route-map COMM permit 10";
        " match community CL";
        " set metric 55" ]
  in
  fst (Parse.parse_config text)

let policy_eval () =
  let ctx = Policy_eval.make_ctx (policy_cfg ()) in
  let r net =
    mk_bgp () |> fun r -> { r with Route.net = p net }
  in
  (match Policy_eval.run_named ctx "POL" (r "10.1.1.0/24") with
   | Policy_eval.Accepted r' ->
     check Alcotest.int "lp set" 250 (Route.get_attrs r').Attrs.local_pref;
     check Alcotest.bool "community added" true
       (List.mem (Vi.community 65001 999) (Route.get_attrs r').Attrs.communities)
   | Policy_eval.Denied -> Alcotest.fail "expected accept");
  (match Policy_eval.run_named ctx "POL" (r "10.1.1.0/28") with
   | Policy_eval.Denied -> ()
   | Policy_eval.Accepted _ -> Alcotest.fail "le 24 should reject /28");
  (match Policy_eval.run_named ctx "POL" (r "192.168.0.0/16") with
   | Policy_eval.Denied -> ()
   | Policy_eval.Accepted _ -> Alcotest.fail "non-matching prefix should be denied")

let policy_as_path () =
  let ctx = Policy_eval.make_ctx (policy_cfg ()) in
  let with_path path = mk_bgp ~path () in
  (match Policy_eval.run_named ctx "AS_FILTER" (with_path [ 65001; 65002; 65003 ]) with
   | Policy_eval.Accepted _ -> ()
   | Policy_eval.Denied -> Alcotest.fail "65002 in path should match");
  (match Policy_eval.run_named ctx "AS_FILTER" (with_path [ 65001; 650022 ]) with
   | Policy_eval.Denied -> ()
   | Policy_eval.Accepted _ -> Alcotest.fail "650022 should not match _65002_")

let policy_community () =
  let ctx = Policy_eval.make_ctx (policy_cfg ()) in
  let with_comm cs =
    { (mk_bgp ()) with
      Route.attrs = Some (Attrs.make ~communities:cs ()) }
  in
  (match Policy_eval.run_named ctx "COMM" (with_comm [ Vi.community 65001 100 ]) with
   | Policy_eval.Accepted r -> check Alcotest.int "metric set" 55 r.Route.metric
   | Policy_eval.Denied -> Alcotest.fail "community should match");
  (match Policy_eval.run_named ctx "COMM" (with_comm [ Vi.community 65001 101 ]) with
   | Policy_eval.Denied -> ()
   | Policy_eval.Accepted _ -> Alcotest.fail "wrong community should not match")

let policy_undefined_semantics () =
  let mk vendor =
    let cfg = Vi.empty "r1" vendor in
    Policy_eval.make_ctx cfg
  in
  let r = mk_bgp () in
  (match Policy_eval.run_named (mk "cisco-ios") "MISSING" r with
   | Policy_eval.Denied -> ()
   | Policy_eval.Accepted _ -> Alcotest.fail "ios: undefined map denies");
  (match Policy_eval.run_named (mk "arista-eos") "MISSING" r with
   | Policy_eval.Accepted _ -> ()
   | Policy_eval.Denied -> Alcotest.fail "eos: undefined map permits")

(* --- ACL evaluation --- *)

let acl_eval () =
  let cfg, _ =
    Parse.parse_config
      (String.concat "\n"
         [ "hostname r1";
           "ip access-list extended T";
           " 10 permit tcp 10.0.0.0 0.255.255.255 any eq 443";
           " 20 deny tcp any any";
           " 30 permit ip any any" ])
  in
  let acl = Option.get (Vi.find_acl cfg "T") in
  let https =
    Packet.tcp ~src:(Ipv4.of_string "10.1.1.1") ~dst:(Ipv4.of_string "8.8.8.8") 443
  in
  check Alcotest.bool "https allowed" true (Acl_eval.permits acl https);
  let http =
    Packet.tcp ~src:(Ipv4.of_string "10.1.1.1") ~dst:(Ipv4.of_string "8.8.8.8") 80
  in
  check Alcotest.bool "http denied" false (Acl_eval.permits acl http);
  let udp =
    Packet.udp ~src:(Ipv4.of_string "172.16.1.1") ~dst:(Ipv4.of_string "8.8.8.8") 53
  in
  check Alcotest.bool "udp allowed by 30" true (Acl_eval.permits acl udp);
  let outside_https =
    Packet.tcp ~src:(Ipv4.of_string "172.16.1.1") ~dst:(Ipv4.of_string "8.8.8.8") 443
  in
  check Alcotest.bool "non-10 https denied" false (Acl_eval.permits acl outside_https)

let suites =
  [ ( "topology",
      [ Alcotest.test_case "coloring units" `Quick coloring_units;
        coloring_valid; coloring_deterministic;
        Alcotest.test_case "scc units" `Quick scc_units;
        Alcotest.test_case "scc long path" `Quick scc_line; scc_first_cycle_model;
        Alcotest.test_case "l3 inference" `Quick l3_units ] );
    ( "rib",
      [ Alcotest.test_case "admin distance" `Quick rib_units;
        Alcotest.test_case "multipath" `Quick rib_multipath;
        Alcotest.test_case "lpm" `Quick rib_lpm;
        Alcotest.test_case "delta cancellation" `Quick delta_cancellation;
        rib_lookup_model; route_same_model; route_order_model ] );
    ( "bgp.decision",
      [ Alcotest.test_case "steps" `Quick bgp_decision; bgp_total_order;
        Alcotest.test_case "interning" `Quick interning ] );
    ( "policy",
      [ Alcotest.test_case "route-map" `Quick policy_eval;
        Alcotest.test_case "as-path regex" `Quick policy_as_path;
        Alcotest.test_case "community" `Quick policy_community;
        Alcotest.test_case "undefined semantics" `Quick policy_undefined_semantics;
        Alcotest.test_case "acl" `Quick acl_eval ] ) ]

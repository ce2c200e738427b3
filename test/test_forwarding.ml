(* BDD forwarding engine tests: the Figure 2 scenario, query semantics,
   NAT/zones/waypoints/bidirectional, loop detection, compression, and the
   differential engine testing of §4.3.2 (BDD engine vs traceroute, both
   directions). *)

let check = Alcotest.check

let build texts =
  let configs = List.map (fun t -> fst (Parse.parse_config (String.concat "\n" t))) texts in
  let dp = Dataplane.compute configs in
  let find name = List.find_opt (fun (c : Vi.t) -> c.hostname = name) configs in
  (configs, dp, find)

let fq ?compress (_, dp, find) = Fquery.make ?compress ~configs:find ~dp ()

(* The Figure 2 network: R1 with hosts behind i0, R2 owning P1, R3 owning P3
   behind an ssh-only ACL on R1's egress. *)
let fig2 () =
  build
    [ [ "hostname r1";
        "interface i0"; " ip address 10.0.0.1 255.255.255.0"; (* hosts *)
        "interface i1"; " ip address 10.0.12.1 255.255.255.252";
        "interface i3"; " ip address 10.0.13.1 255.255.255.252";
        " ip access-group SSH_ONLY out";
        "ip access-list extended SSH_ONLY";
        " 10 permit tcp any any eq 22";
        " 20 deny ip any any";
        "ip route 10.0.1.0 255.255.255.0 10.0.12.2";
        "ip route 10.0.3.0 255.255.255.0 10.0.13.2" ];
      [ "hostname r2";
        "interface i1"; " ip address 10.0.12.2 255.255.255.252";
        "interface p1"; " ip address 10.0.1.1 255.255.255.0" ];
      [ "hostname r3";
        "interface i3"; " ip address 10.0.13.2 255.255.255.252";
        "interface p3"; " ip address 10.0.3.1 255.255.255.0" ] ]

let ip = Ipv4.of_string
let pfx = Prefix.of_string

let fig2_reachability () =
  let net = fig2 () in
  let q = fq net in
  let e = Fquery.env q in
  let man = Pktset.man e in
  (* all TCP packets entering r1.i0 destined to P1 are delivered *)
  let tcp = Pktset.value e Field.Protocol Packet.Proto.tcp in
  let to_p1 =
    Fquery.reachable q ~src:("r1", Some "i0") ~hdr:tcp ~dst_ip:(pfx "10.0.1.0/24") ()
  in
  let all_tcp_p1 =
    Bdd.conj man [ tcp; Pktset.dst_prefix e (pfx "10.0.1.0/24"); Fquery.clean q ]
  in
  check Alcotest.bool "all tcp to P1 delivered" true (Bdd.equal to_p1 all_tcp_p1);
  (* to P3 only ssh makes it *)
  let to_p3 =
    Fquery.reachable q ~src:("r1", Some "i0") ~hdr:tcp ~dst_ip:(pfx "10.0.3.0/24") ()
  in
  let ssh = Pktset.range e Field.Dst_port 22 22 in
  check Alcotest.bool "only ssh reaches P3" true
    (Bdd.is_bot (Bdd.bdiff man to_p3 ssh));
  check Alcotest.bool "ssh does reach P3" false (Bdd.is_bot to_p3);
  (* example extraction: a violating packet (non-ssh to P3) with a positive
     contrast (ssh) *)
  let want =
    Bdd.conj man [ tcp; Pktset.dst_prefix e (pfx "10.0.3.0/24"); Fquery.clean q ]
  in
  let violating = Bdd.bdiff man want to_p3 in
  let neg, pos =
    Fquery.pick_examples q ~dst_prefix:(pfx "10.0.3.0/24") ~violating ~holding:want ()
  in
  (match neg with
   | Some p ->
     check Alcotest.bool "neg is not ssh" true (p.Packet.dst_port <> 22);
     check Alcotest.bool "neg dst in P3" true (Prefix.contains (pfx "10.0.3.0/24") p.Packet.dst_ip)
   | None -> Alcotest.fail "expected counterexample");
  (match pos with
   | Some p -> check Alcotest.int "pos is ssh" 22 p.Packet.dst_port
   | None -> Alcotest.fail "expected positive example")

(* --- differential engine testing (§4.3.2) --- *)

let packet_gen_for prefixes =
  QCheck.Gen.(
    let any_ip = map (fun i -> i land 0xFFFF_FFFF) (int_range 0 0xFFFF_FFFF) in
    let dst =
      oneof
        (any_ip
        :: List.map
             (fun p -> map (fun off -> Prefix.network p + (off land 0xFF)) (int_bound 255))
             prefixes)
    in
    map2
      (fun (s, d, sp, dp_) (proto, flags) ->
        { Packet.default with src_ip = s; dst_ip = d; src_port = sp; dst_port = dp_;
          protocol = proto; tcp_flags = flags })
      (quad any_ip dst (int_bound 65535) (int_bound 65535))
      (pair (QCheck.Gen.oneofl [ 1; 6; 17 ]) (int_bound 255)))

(* Direction 2 of §4.3.2: run the concrete engine on a packet, then check the
   symbolic engine agrees on the disposition. *)
let differential_network name texts starts prefixes =
  let ((_, dp, find) as net) = build texts in
  let q = fq net in
  let e = Fquery.env q in
  let deliver = Fquery.to_delivered q () in
  let drop = Fquery.to_dropped q () in
  let prop pkt =
    List.for_all
      (fun (node, iface) ->
        let traces = Traceroute.run ~configs:find ~dp ~start:node ~ingress:iface pkt in
        let delivered_t =
          List.exists (fun tr -> Traceroute.is_delivered tr.Traceroute.disposition) traces
        and dropped_t =
          List.exists
            (fun tr ->
              match tr.Traceroute.disposition with
              | Traceroute.Loop _ | Traceroute.Hop_limit_exceeded _ -> false
              | d -> not (Traceroute.is_delivered d))
            traces
        in
        match Fgraph.loc_id q.Fquery.g (Fgraph.Src (node, iface)) with
        | None -> true
        | Some id ->
          let in_deliver = Pktset.mem e deliver.(id) pkt in
          let in_drop = Pktset.mem e drop.(id) pkt in
          delivered_t = in_deliver && dropped_t = in_drop)
      starts
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150 ~name
       (QCheck.make ~print:Packet.to_string (packet_gen_for prefixes))
       prop)

let diff_ospf_bgp =
  differential_network "differential: ospf+bgp+acl network"
    [ [ "hostname r1";
        "interface hosts"; " ip address 10.1.0.1 255.255.0.0";
        "interface e12"; " ip address 10.0.12.1 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 10";
        "interface e13"; " ip address 10.0.13.1 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 10";
        "router ospf 1"; " maximum-paths 4"; " redistribute connected subnets" ];
      [ "hostname r2";
        "interface e12"; " ip address 10.0.12.2 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 10";
        "interface e24"; " ip address 10.0.24.1 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 10";
        "router ospf 1"; " maximum-paths 4" ];
      [ "hostname r3";
        "interface e13"; " ip address 10.0.13.2 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 10";
        "interface e34"; " ip address 10.0.34.1 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 20";
        "router ospf 1"; " maximum-paths 4" ];
      [ "hostname r4";
        "interface e24"; " ip address 10.0.24.2 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 10";
        "interface e34"; " ip address 10.0.34.2 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 20";
        "interface servers"; " ip address 10.4.0.1 255.255.0.0";
        " ip access-group PROTECT out";
        "ip access-list extended PROTECT";
        " 10 permit tcp any 10.4.0.0 0.0.255.255 eq 80";
        " 20 permit tcp any any established";
        " 30 permit icmp any any";
        " 40 deny ip any any";
        "router ospf 1"; " maximum-paths 4"; " redistribute connected subnets" ] ]
    [ ("r1", "hosts"); ("r4", "servers"); ("r2", "e12") ]
    [ pfx "10.1.0.0/16"; pfx "10.4.0.0/16"; pfx "10.0.12.0/30"; pfx "10.0.34.0/30" ]

(* Direction 1 of §4.3.2: pick representative packets from the symbolic
   answer and confirm them concretely. *)
let diff_direction1 () =
  let ((_, dp, find) as net) = fig2 () in
  let q = fq net in
  let e = Fquery.env q in
  let man = Pktset.man e in
  let deliver = Fquery.to_delivered q () in
  let drop = Fquery.to_dropped q () in
  let starts = [ ("r1", "i0"); ("r2", "p1"); ("r3", "p3") ] in
  List.iter
    (fun (node, iface) ->
      match Fgraph.loc_id q.Fquery.g (Fgraph.Src (node, iface)) with
      | None -> Alcotest.failf "missing src loc %s %s" node iface
      | Some id ->
        let check_set set expect_delivered =
          let set = Bdd.band man set (Fquery.clean q) in
          match Pktset.to_packet e ~prefs:(Pktset.standard_prefs e ()) set with
          | None -> ()
          | Some pkt ->
            let traces = Traceroute.run ~configs:find ~dp ~start:node ~ingress:iface pkt in
            let delivered =
              List.exists (fun tr -> Traceroute.is_delivered tr.Traceroute.disposition) traces
            in
            if expect_delivered && not delivered then
              Alcotest.failf "symbolic says delivered, traceroute disagrees: %s at %s[%s]"
                (Packet.to_string pkt) node iface
            else if (not expect_delivered) && delivered then
              Alcotest.failf "symbolic says dropped, traceroute delivered: %s at %s[%s]"
                (Packet.to_string pkt) node iface
        in
        check_set (Bdd.bdiff man deliver.(id) drop.(id)) true;
        check_set (Bdd.bdiff man drop.(id) deliver.(id)) false)
    starts

(* --- multipath consistency --- *)

let multipath_consistency () =
  (* ECMP diamond where one path denies http: inconsistent *)
  let net =
    build
      [ [ "hostname a";
          "interface hosts"; " ip address 10.1.0.1 255.255.0.0";
          "interface e1"; " ip address 10.0.1.1 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 10";
          "interface e2"; " ip address 10.0.2.1 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 10";
          "router ospf 1"; " maximum-paths 4" ];
        [ "hostname b1";
          "interface e1"; " ip address 10.0.1.2 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 10";
          "interface e3"; " ip address 10.0.3.1 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 10";
          "router ospf 1"; " maximum-paths 4" ];
        [ "hostname b2";
          "interface e2"; " ip address 10.0.2.2 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 10";
          " ip access-group NO_HTTP in";
          "interface e4"; " ip address 10.0.4.1 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 10";
          "ip access-list extended NO_HTTP";
          " 10 deny tcp any any eq 80";
          " 20 permit ip any any";
          "router ospf 1"; " maximum-paths 4" ];
        [ "hostname c";
          "interface e3"; " ip address 10.0.3.2 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 10";
          "interface e4"; " ip address 10.0.4.2 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 10";
          "interface servers"; " ip address 10.9.0.1 255.255.0.0";
          "router ospf 1"; " maximum-paths 4"; " redistribute connected subnets" ] ]
  in
  let q = fq net in
  let e = Fquery.env q in
  let violations = Fquery.multipath_consistency q () in
  check Alcotest.bool "violation found" true (violations <> []);
  let (_, v) = List.find (fun ((n, _), _) -> n = "a") violations in
  (match Pktset.to_packet e v with
   | Some p ->
     check Alcotest.int "violating flow is http" 80 p.Packet.dst_port
   | None -> Alcotest.fail "expected example");
  (* consistent network: no violations *)
  let clean_net = fig2 () in
  let q2 = fq clean_net in
  check Alcotest.int "consistent network" 0
    (List.length (Fquery.multipath_consistency q2 ()))

(* --- waypoint --- *)

let waypoint () =
  let net =
    build
      [ [ "hostname a";
          "interface hosts"; " ip address 10.1.0.1 255.255.0.0";
          "interface e1"; " ip address 10.0.1.1 255.255.255.252";
          "ip route 10.9.0.0 255.255.0.0 10.0.1.2" ];
        [ "hostname b";
          "interface e1"; " ip address 10.0.1.2 255.255.255.252";
          "interface e2"; " ip address 10.0.2.1 255.255.255.252";
          "ip route 10.9.0.0 255.255.0.0 10.0.2.2";
          "ip route 10.1.0.0 255.255.0.0 10.0.1.1" ];
        [ "hostname c";
          "interface e2"; " ip address 10.0.2.2 255.255.255.252";
          "interface servers"; " ip address 10.9.0.1 255.255.0.0";
          "ip route 10.1.0.0 255.255.0.0 10.0.2.1" ] ]
  in
  let q = fq net in
  let e = Fquery.env q in
  let man = Pktset.man e in
  let hdr = Pktset.dst_prefix e (pfx "10.9.0.0/16") in
  let compliant, violating =
    Fquery.waypoint q ~src:("a", Some "hosts") ~dst_node:"c" ~waypoint:"b"
      ~mode:`Through ~hdr ()
  in
  check Alcotest.bool "all traffic goes through b" true (Bdd.is_bot violating);
  check Alcotest.bool "traffic exists" false (Bdd.is_bot compliant);
  let compliant2, violating2 =
    Fquery.waypoint q ~src:("a", Some "hosts") ~dst_node:"c" ~waypoint:"b"
      ~mode:`Avoid ~hdr ()
  in
  ignore man;
  check Alcotest.bool "avoid mode flips" true
    (Bdd.equal compliant violating2 && Bdd.equal violating compliant2)

(* --- zones and bidirectional reachability --- *)

let zones_bidirectional () =
  let net =
    build
      [ [ "hostname inside";
          "interface lan"; " ip address 10.1.0.1 255.255.0.0";
          "interface e1"; " ip address 10.0.1.1 255.255.255.252";
          "ip route 0.0.0.0 0.0.0.0 10.0.1.2" ];
        [ "hostname fw";
          "interface e1"; " ip address 10.0.1.2 255.255.255.252";
          " zone-member security TRUST";
          "interface e2"; " ip address 10.0.2.1 255.255.255.252";
          " zone-member security UNTRUST";
          "zone security TRUST";
          "zone security UNTRUST";
          "zone-pair security source TRUST destination UNTRUST acl OUTBOUND";
          "ip access-list extended OUTBOUND";
          " 10 permit tcp 10.1.0.0 0.0.255.255 any";
          " 20 deny ip any any";
          "ip route 10.1.0.0 255.255.0.0 10.0.1.1";
          "ip route 10.9.0.0 255.255.0.0 10.0.2.2" ];
        [ "hostname outside";
          "interface e2"; " ip address 10.0.2.2 255.255.255.252";
          "interface ext"; " ip address 10.9.0.1 255.255.0.0";
          "ip route 0.0.0.0 0.0.0.0 10.0.2.1" ] ]
  in
  let q = fq net in
  let e = Fquery.env q in
  let man = Pktset.man e in
  (* outbound tcp allowed *)
  let out_hdr =
    Bdd.conj man
      [ Pktset.value e Field.Protocol Packet.Proto.tcp;
        Pktset.src_prefix e (pfx "10.1.0.0/16");
        Pktset.dst_prefix e (pfx "10.9.0.0/16") ]
  in
  let delivered = Fquery.reachable q ~src:("inside", Some "lan") ~hdr:out_hdr () in
  check Alcotest.bool "outbound allowed" false (Bdd.is_bot delivered);
  (* inbound blocked by default deny across zones *)
  let in_hdr =
    Bdd.conj man
      [ Pktset.src_prefix e (pfx "10.9.0.0/16"); Pktset.dst_prefix e (pfx "10.1.0.0/16") ]
  in
  let inbound = Fquery.reachable q ~src:("outside", Some "ext") ~hdr:in_hdr () in
  check Alcotest.bool "inbound blocked" true (Bdd.is_bot inbound);
  (* but return traffic of established sessions makes the round trip *)
  let fwd, round_trip =
    Fquery.bidirectional q ~src:("inside", Some "lan") ~dst:("outside", "ext") ~hdr:out_hdr ()
  in
  check Alcotest.bool "forward delivered" false (Bdd.is_bot fwd);
  check Alcotest.bool "round trip works via session" false (Bdd.is_bot round_trip);
  (* traceroute agrees the plain inbound packet dies at the firewall *)
  let (_, dp, find) = net in
  let pkt = Packet.tcp ~src:(ip "10.9.5.5") ~dst:(ip "10.1.5.5") 80 in
  let traces = Traceroute.run ~configs:find ~dp ~start:"outside" ~ingress:"ext" pkt in
  check Alcotest.bool "traceroute: zone denied" true
    (List.for_all
       (fun tr ->
         match tr.Traceroute.disposition with
         | Traceroute.Denied_zone ("fw", _) -> true
         | _ -> false)
       traces)

(* --- NAT --- *)

let nat () =
  let net =
    build
      [ [ "hostname gw";
          "interface inside"; " ip address 10.1.0.1 255.255.0.0";
          "interface outside"; " ip address 203.0.113.1 255.255.255.252";
          "ip access-list extended PRIVATE";
          " 10 permit ip 10.1.0.0 0.0.255.255 any";
          "ip nat pool NATPOOL 198.51.100.1 198.51.100.254 prefix-length 24";
          "ip nat inside source list PRIVATE pool NATPOOL overload";
          "ip route 0.0.0.0 0.0.0.0 203.0.113.2" ];
        [ "hostname isp";
          "interface outside"; " ip address 203.0.113.2 255.255.255.252";
          "interface net"; " ip address 8.8.8.1 255.255.255.0";
          "ip route 198.51.100.0 255.255.255.0 203.0.113.1" ] ]
  in
  let q = fq net in
  let e = Fquery.env q in
  let man = Pktset.man e in
  let hdr =
    Bdd.band man
      (Pktset.src_prefix e (pfx "10.1.0.0/16"))
      (Pktset.dst_prefix e (pfx "8.8.8.0/24"))
  in
  let sets = Fquery.forward_from q ~hdr [ ("gw", Some "inside") ] in
  (* at the ISP's delivery interface, sources must be NATed into the pool *)
  match Fgraph.loc_id q.Fquery.g (Fgraph.Dst ("isp", "net")) with
  | None -> Alcotest.fail "missing dst loc"
  | Some id ->
    let arrived = sets.(id) in
    check Alcotest.bool "traffic arrives" false (Bdd.is_bot arrived);
    check Alcotest.bool "sources rewritten into pool" true
      (Bdd.is_bot (Bdd.bdiff man arrived (Pktset.src_prefix e (pfx "198.51.100.0/24"))));
    (* traceroute agrees on the rewrite *)
    let (_, dp, find) = net in
    let pkt = Packet.tcp ~src:(ip "10.1.2.3") ~dst:(ip "8.8.8.8") 443 in
    let traces = Traceroute.run ~configs:find ~dp ~start:"gw" ~ingress:"inside" pkt in
    (match traces with
     | [ tr ] ->
       check Alcotest.bool "delivered" true (Traceroute.is_delivered tr.Traceroute.disposition);
       check Alcotest.bool "concrete src in pool" true
         (Prefix.contains (pfx "198.51.100.0/24") tr.Traceroute.final_packet.Packet.src_ip);
       check Alcotest.bool "symbolic contains concrete" true
         (Pktset.mem e arrived tr.Traceroute.final_packet)
     | _ -> Alcotest.fail "expected one trace")

(* --- loops --- *)

let loops () =
  let net =
    build
      [ [ "hostname a";
          "interface e1"; " ip address 10.0.1.1 255.255.255.252";
          "ip route 10.9.0.0 255.255.0.0 10.0.1.2" ];
        [ "hostname b";
          "interface e1"; " ip address 10.0.1.2 255.255.255.252";
          "ip route 10.9.0.0 255.255.0.0 10.0.1.1" ] ]
  in
  let q = fq net in
  let found = Fquery.find_loops q in
  check Alcotest.bool "loop found" true (found <> []);
  let nodes, set = List.hd found in
  check Alcotest.bool "loop involves a and b" true
    (List.mem "a" nodes && List.mem "b" nodes);
  let e = Fquery.env q in
  (match Pktset.to_packet e set with
   | Some p ->
     check Alcotest.bool "looping packet heads to 10.9/16" true
       (Prefix.contains (pfx "10.9.0.0/16") p.Packet.dst_ip);
     (* traceroute agrees *)
     let (_, dp, find) = net in
     let traces = Traceroute.run ~configs:find ~dp ~start:"a" p in
     check Alcotest.bool "traceroute loops" true
       (List.exists
          (fun tr ->
            match tr.Traceroute.disposition with
            | Traceroute.Loop _ -> true
            | _ -> false)
          traces)
   | None -> Alcotest.fail "expected looping packet");
  (* loop-free network *)
  let q2 = fq (fig2 ()) in
  check Alcotest.int "no loops in fig2" 0 (List.length (Fquery.find_loops q2))

(* NET12 loaded without the generator's environment, as a [netgen --out]
   directory is: its forwarding graph has a strongly connected component of
   over a thousand locations, where a cycle search over all simple paths runs
   for minutes. One search per component is linear, so the bound is loose. *)
let loops_net12_bounded () =
  let p = List.find (fun (p : Netgen.profile) -> p.Netgen.p_name = "NET12") Netgen.profiles in
  let net = p.Netgen.p_make 1.0 in
  let bf = Batfish.init (Batfish.Snapshot.of_texts net.Netgen.n_configs) in
  let q = Batfish.forwarding bf in
  let g = Fquery.graph q in
  let n = Fgraph.n_locs g in
  let comp =
    Scc.compute ~n
      (Array.map (List.map (fun (e : Fgraph.edge) -> e.Fgraph.e_to)) g.Fgraph.out_edges)
  in
  let largest = Array.fold_left (fun m c -> max m (List.length c)) 0 (Scc.groups comp) in
  check Alcotest.bool "a component of over a thousand locations" true (largest > 1000);
  let t0 = Unix.gettimeofday () in
  ignore (Fquery.find_loops q);
  let elapsed = Unix.gettimeofday () -. t0 in
  if elapsed > 10. then Alcotest.failf "find_loops took %.1f s (bound 10 s)" elapsed

(* --- compression ablation: identical answers --- *)

let compression_equivalence () =
  let net = fig2 () in
  let e = Pktset.create () in
  let (_, dp, find) = net in
  let q1 =
    Fquery.of_graph
      (Fgraph.build ~env:e ~compress:true ~configs:find ~dp ())
      ~dp ~configs:find
  in
  let q2 =
    Fquery.of_graph
      (Fgraph.build ~env:e ~compress:false ~configs:find ~dp ())
      ~dp ~configs:find
  in
  check Alcotest.bool "compression shrinks the graph" true
    (Fgraph.n_edges q1.Fquery.g <= Fgraph.n_edges q2.Fquery.g);
  let r1 = Fquery.reachable q1 ~src:("r1", Some "i0") ~dst_ip:(pfx "10.0.3.0/24") () in
  let r2 = Fquery.reachable q2 ~src:("r1", Some "i0") ~dst_ip:(pfx "10.0.3.0/24") () in
  check Alcotest.bool "same answer" true (Bdd.equal r1 r2);
  let m1 = Fquery.multipath_consistency q1 () in
  let m2 = Fquery.multipath_consistency q2 () in
  check Alcotest.int "same violations" (List.length m1) (List.length m2)

let suites =
  [ ( "forwarding.fig2",
      [ Alcotest.test_case "reachability + examples" `Quick fig2_reachability;
        Alcotest.test_case "compression equivalence" `Quick compression_equivalence ] );
    ( "forwarding.differential",
      [ diff_ospf_bgp; Alcotest.test_case "direction 1" `Quick diff_direction1 ] );
    ( "forwarding.queries",
      [ Alcotest.test_case "multipath consistency" `Quick multipath_consistency;
        Alcotest.test_case "waypoint" `Quick waypoint;
        Alcotest.test_case "zones + bidirectional" `Quick zones_bidirectional;
        Alcotest.test_case "nat" `Quick nat;
        Alcotest.test_case "loops" `Quick loops;
        Alcotest.test_case "loops on NET12 within a time bound" `Quick loops_net12_bounded ] ) ]

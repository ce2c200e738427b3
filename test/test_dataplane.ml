(* Data-plane generation tests: golden lab networks (the §4.3.1 stand-in),
   convergence behaviour (Figure 1), determinism, and session checks. *)

let check = Alcotest.check

let cfg lines = fst (Parse.parse_config (String.concat "\n" lines))

let compute ?options ?env texts =
  Dataplane.compute ?options ?env (List.map cfg texts)

let routes_to node (dp : Dataplane.t) pfx =
  Rib.best (Dataplane.node dp node).Dataplane.nr_main (Prefix.of_string pfx)

let fib_actions node dp ip =
  Fib.lookup (Dataplane.node dp node).Dataplane.nr_fib (Ipv4.of_string ip)

(* --- OSPF triangle: costs must pick the 2-hop path --- *)

let ospf_triangle () =
  let r1 =
    [ "hostname r1";
      "interface Loopback0"; " ip address 1.1.1.1 255.255.255.255";
      " ip ospf area 0"; " ip ospf cost 1";
      "interface e12"; " ip address 10.0.12.1 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 10";
      "interface e13"; " ip address 10.0.13.1 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 30";
      "router ospf 1"; " router-id 1.1.1.1"; " passive-interface Loopback0" ]
  and r2 =
    [ "hostname r2";
      "interface Loopback0"; " ip address 2.2.2.2 255.255.255.255";
      " ip ospf area 0"; " ip ospf cost 1";
      "interface e12"; " ip address 10.0.12.2 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 10";
      "interface e23"; " ip address 10.0.23.1 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 10";
      "router ospf 1"; " router-id 2.2.2.2"; " passive-interface Loopback0" ]
  and r3 =
    [ "hostname r3";
      "interface Loopback0"; " ip address 3.3.3.3 255.255.255.255";
      " ip ospf area 0"; " ip ospf cost 1";
      "interface e13"; " ip address 10.0.13.2 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 30";
      "interface e23"; " ip address 10.0.23.2 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 10";
      "router ospf 1"; " router-id 3.3.3.3"; " passive-interface Loopback0" ]
  in
  let dp = compute [ r1; r2; r3 ] in
  check Alcotest.bool "converged" true dp.Dataplane.converged;
  (match routes_to "r1" dp "3.3.3.3/32" with
   | [ r ] ->
     check Alcotest.int "metric via r2" 21 r.Route.metric;
     check Alcotest.bool "nh is r2" true
       (Route.next_hop_ip r = Some (Ipv4.of_string "10.0.12.2"))
   | l -> Alcotest.failf "expected 1 route, got %d" (List.length l));
  (* FIB forwards toward r2 *)
  (match fib_actions "r1" dp "3.3.3.3" with
   | [ Fib.Forward { out_iface; gateway = Some g } ] ->
     check Alcotest.string "out iface" "e12" out_iface;
     check Alcotest.string "gateway" "10.0.12.2" (Ipv4.to_string g)
   | _ -> Alcotest.fail "expected single forward action");
  (* r2 receives traffic to its own loopback *)
  check Alcotest.bool "receive own loopback" true
    (fib_actions "r2" dp "2.2.2.2" = [ Fib.Receive ])

(* --- OSPF ECMP diamond --- *)

let ospf_ecmp () =
  let mk name lo (links : (string * string) list) =
    [ "hostname " ^ name;
      "interface Loopback0"; Printf.sprintf " ip address %s 255.255.255.255" lo;
      " ip ospf area 0"; " ip ospf cost 1" ]
    @ List.concat_map
        (fun (iface, addr) ->
          [ "interface " ^ iface;
            Printf.sprintf " ip address %s 255.255.255.252" addr;
            " ip ospf area 0"; " ip ospf cost 10" ])
        links
    @ [ "router ospf 1"; " maximum-paths 4"; " passive-interface Loopback0" ]
  in
  let r1 = mk "r1" "1.1.1.1" [ ("e12", "10.0.12.1"); ("e13", "10.0.13.1") ] in
  let r2 = mk "r2" "2.2.2.2" [ ("e12", "10.0.12.2"); ("e24", "10.0.24.1") ] in
  let r3 = mk "r3" "3.3.3.3" [ ("e13", "10.0.13.2"); ("e34", "10.0.34.1") ] in
  let r4 = mk "r4" "4.4.4.4" [ ("e24", "10.0.24.2"); ("e34", "10.0.34.2") ] in
  let dp = compute [ r1; r2; r3; r4 ] in
  (match routes_to "r1" dp "4.4.4.4/32" with
   | routes ->
     check Alcotest.int "two ecmp routes" 2 (List.length routes));
  check Alcotest.int "two fib actions" 2 (List.length (fib_actions "r1" dp "4.4.4.4"))

(* --- eBGP chain --- *)

let ebgp_chain_cfgs () =
  let r1 =
    [ "hostname r1";
      "interface lan"; " ip address 10.1.0.1 255.255.0.0";
      "interface e12"; " ip address 192.168.12.1 255.255.255.252";
      "router bgp 100";
      " bgp router-id 1.1.1.1";
      " neighbor 192.168.12.2 remote-as 200";
      " network 10.1.0.0 mask 255.255.0.0" ]
  and r2 =
    [ "hostname r2";
      "interface e12"; " ip address 192.168.12.2 255.255.255.252";
      "interface e23"; " ip address 192.168.23.1 255.255.255.252";
      "router bgp 200";
      " bgp router-id 2.2.2.2";
      " neighbor 192.168.12.1 remote-as 100";
      " neighbor 192.168.23.2 remote-as 300" ]
  and r3 =
    [ "hostname r3";
      "interface e23"; " ip address 192.168.23.2 255.255.255.252";
      "router bgp 300";
      " bgp router-id 3.3.3.3";
      " neighbor 192.168.23.1 remote-as 200" ]
  in
  [ r1; r2; r3 ]

let ebgp_chain () =
  let dp = compute (ebgp_chain_cfgs ()) in
  check Alcotest.bool "converged" true dp.Dataplane.converged;
  check Alcotest.bool "no oscillation" false dp.Dataplane.oscillated;
  (match routes_to "r3" dp "10.1.0.0/16" with
   | [ r ] ->
     check Alcotest.bool "ebgp" true (r.Route.protocol = Route_proto.Ebgp);
     let a = Route.get_attrs r in
     check Alcotest.(list int) "as path" [ 200; 100 ] a.Attrs.as_path;
     check Alcotest.bool "nh is r2" true
       (Route.next_hop_ip r = Some (Ipv4.of_string "192.168.23.1"))
   | l -> Alcotest.failf "expected 1 route at r3, got %d" (List.length l));
  (match routes_to "r2" dp "10.1.0.0/16" with
   | [ r ] ->
     check Alcotest.(list int) "one-hop path" [ 100 ] (Route.get_attrs r).Attrs.as_path
   | _ -> Alcotest.fail "expected 1 route at r2");
  (* all sessions up *)
  check Alcotest.bool "sessions up" true
    (List.for_all (fun s -> s.Dataplane.sr_established) dp.Dataplane.sessions);
  (* r3 forwards toward r2 *)
  (match fib_actions "r3" dp "10.1.5.5" with
   | [ Fib.Forward { gateway = Some g; _ } ] ->
     check Alcotest.string "gateway r2" "192.168.23.1" (Ipv4.to_string g)
   | _ -> Alcotest.fail "expected forward at r3")

(* --- iBGP over OSPF with a route reflector and next-hop-self --- *)

let ibgp_rr () =
  let core =
    [ "hostname core";
      "interface Loopback0"; " ip address 10.255.0.1 255.255.255.255"; " ip ospf area 0"; " ip ospf cost 1";
      "interface e1"; " ip address 10.0.1.1 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 10";
      "interface e2"; " ip address 10.0.2.1 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 10";
      "router ospf 1"; " passive-interface Loopback0";
      "router bgp 65000";
      " bgp router-id 10.255.0.1";
      " bgp cluster-id 10.255.0.1";
      " neighbor 10.255.0.2 remote-as 65000";
      " neighbor 10.255.0.2 update-source Loopback0";
      " neighbor 10.255.0.2 route-reflector-client";
      " neighbor 10.255.0.3 remote-as 65000";
      " neighbor 10.255.0.3 update-source Loopback0";
      " neighbor 10.255.0.3 route-reflector-client" ]
  and border =
    [ "hostname border";
      "interface Loopback0"; " ip address 10.255.0.2 255.255.255.255"; " ip ospf area 0"; " ip ospf cost 1";
      "interface e1"; " ip address 10.0.1.2 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 10";
      "interface ext"; " ip address 203.0.113.2 255.255.255.252";
      "router ospf 1"; " passive-interface Loopback0";
      "router bgp 65000";
      " bgp router-id 10.255.0.2";
      " neighbor 10.255.0.1 remote-as 65000";
      " neighbor 10.255.0.1 update-source Loopback0";
      " neighbor 10.255.0.1 next-hop-self";
      " neighbor 203.0.113.1 remote-as 65010" ]
  and leaf =
    [ "hostname leaf";
      "interface Loopback0"; " ip address 10.255.0.3 255.255.255.255"; " ip ospf area 0"; " ip ospf cost 1";
      "interface e2"; " ip address 10.0.2.2 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 10";
      "router ospf 1"; " passive-interface Loopback0";
      "router bgp 65000";
      " bgp router-id 10.255.0.3";
      " neighbor 10.255.0.1 remote-as 65000";
      " neighbor 10.255.0.1 update-source Loopback0" ]
  in
  let env =
    Dp_env.make
      [ Dp_env.peer ~ip:(Ipv4.of_string "203.0.113.1") ~asn:65010
          [ Dp_env.announce (Prefix.of_string "8.8.8.0/24") ] ]
  in
  let dp = compute ~env [ core; border; leaf ] in
  check Alcotest.bool "converged" true dp.Dataplane.converged;
  (* border got the external route *)
  (match routes_to "border" dp "8.8.8.0/24" with
   | [ r ] -> check Alcotest.bool "ebgp at border" true (r.Route.protocol = Route_proto.Ebgp)
   | l -> Alcotest.failf "expected external route at border, got %d" (List.length l));
  (* leaf learns it through the RR, with next-hop-self applied at border *)
  (match routes_to "leaf" dp "8.8.8.0/24" with
   | [ r ] ->
     check Alcotest.bool "ibgp at leaf" true (r.Route.protocol = Route_proto.Ibgp);
     check Alcotest.bool "nh is border loopback" true
       (Route.next_hop_ip r = Some (Ipv4.of_string "10.255.0.2"));
     let a = Route.get_attrs r in
     check Alcotest.bool "originator set" true (a.Attrs.originator_id <> 0);
     check Alcotest.bool "cluster list non-empty" true (a.Attrs.cluster_list <> [])
   | l -> Alcotest.failf "expected reflected route at leaf, got %d" (List.length l));
  (* leaf's FIB resolves the loopback next hop recursively via OSPF *)
  (match fib_actions "leaf" dp "8.8.8.8" with
   | [ Fib.Forward { out_iface = "e2"; gateway = Some g } ] ->
     check Alcotest.string "recursive gateway" "10.0.2.1" (Ipv4.to_string g)
   | _ -> Alcotest.fail "expected recursive resolution at leaf")

(* --- static routes: recursion, null, interface --- *)

let statics () =
  let r1 =
    [ "hostname r1";
      "interface e1"; " ip address 10.0.12.1 255.255.255.252";
      "ip route 0.0.0.0 0.0.0.0 10.0.12.2";
      (* recursive: next hop resolved via the default route *)
      "ip route 172.16.0.0 255.255.0.0 99.99.99.99";
      "ip route 10.99.0.0 255.255.0.0 Null0";
      "ip route 10.98.0.0 255.255.0.0 MissingIface" ]
  and r2 = [ "hostname r2"; "interface e1"; " ip address 10.0.12.2 255.255.255.252" ] in
  let dp = compute [ r1; r2 ] in
  (match fib_actions "r1" dp "8.8.8.8" with
   | [ Fib.Forward { gateway = Some g; _ } ] ->
     check Alcotest.string "default gw" "10.0.12.2" (Ipv4.to_string g)
   | _ -> Alcotest.fail "default route expected");
  (match fib_actions "r1" dp "172.16.5.5" with
   | [ Fib.Forward { gateway = Some g; _ } ] ->
     (* recursive resolution lands on the directly connected gateway of the
        resolving (default) route *)
     check Alcotest.string "recursive static resolves via default" "10.0.12.2"
       (Ipv4.to_string g)
   | _ -> Alcotest.fail "expected recursive forward");
  check Alcotest.bool "null routed" true (fib_actions "r1" dp "10.99.1.1" = [ Fib.Drop_null ]);
  (* the unresolvable static is not installed; traffic falls to the default *)
  check Alcotest.int "missing iface inactive" 0
    (List.length (routes_to "r1" dp "10.98.0.0/16"))

(* --- Figure 1b: mutual-export oscillation under lockstep, stable when
   colored --- *)

let fig1b_cfgs () =
  let border n my_ip peer_ip ext_ip =
    [ "hostname " ^ n;
      "interface ibgp"; Printf.sprintf " ip address %s 255.255.255.252" my_ip;
      "interface ext"; Printf.sprintf " ip address %s 255.255.255.252" ext_ip;
      "route-map FROM_IBGP permit 10";
      " set local-preference 200";
      "router bgp 65000";
      Printf.sprintf " bgp router-id %s" my_ip;
      Printf.sprintf " neighbor %s remote-as 65000" peer_ip;
      Printf.sprintf " neighbor %s route-map FROM_IBGP in" peer_ip;
      " neighbor " ^ (if n = "b1" then "203.0.1.1" else "203.0.2.1") ^ " remote-as 65010" ]
  in
  let b1 = border "b1" "10.0.0.1" "10.0.0.2" "203.0.1.2" in
  let b2 = border "b2" "10.0.0.2" "10.0.0.1" "203.0.2.2" in
  let env =
    Dp_env.make
      [ Dp_env.peer ~ip:(Ipv4.of_string "203.0.1.1") ~asn:65010
          [ Dp_env.announce (Prefix.of_string "10.0.0.0/8") ];
        Dp_env.peer ~ip:(Ipv4.of_string "203.0.2.1") ~asn:65010
          [ Dp_env.announce (Prefix.of_string "10.0.0.0/8") ] ]
  in
  ([ b1; b2 ], env)

let fig1b_colored () =
  let cfgs, env = fig1b_cfgs () in
  let dp = compute ~env cfgs in
  check Alcotest.bool "colored converges" true dp.Dataplane.converged;
  check Alcotest.bool "no oscillation" false dp.Dataplane.oscillated;
  (* one of the two borders uses the internal path, the other external *)
  let proto n =
    match routes_to n dp "10.0.0.0/8" with
    | r :: _ -> r.Route.protocol
    | [] -> Alcotest.failf "no route at %s" n
  in
  let protos = List.sort compare [ proto "b1"; proto "b2" ] in
  check Alcotest.bool "one internal, one external" true
    (protos = [ Route_proto.Ebgp; Route_proto.Ibgp ])

let fig1b_lockstep () =
  let cfgs, env = fig1b_cfgs () in
  let options =
    { Dataplane.default_options with
      schedule = Dataplane.Lockstep; max_rounds = 60 }
  in
  let dp = compute ~options ~env cfgs in
  check Alcotest.bool "lockstep oscillates" true dp.Dataplane.oscillated;
  check Alcotest.bool "not converged" false dp.Dataplane.converged

(* --- determinism: identical runs, and identical across worker counts --- *)

let dump dp =
  List.concat_map
    (fun n ->
      let nr = Dataplane.node dp n in
      List.map
        (fun r -> n ^ "|" ^ Route.to_string r)
        (List.sort compare (Rib.best_routes nr.Dataplane.nr_main)))
    dp.Dataplane.node_order

let determinism () =
  let cfgs, env = fig1b_cfgs () in
  let d1 = dump (compute ~env cfgs) in
  let d2 = dump (compute ~env cfgs) in
  check Alcotest.(list string) "same run twice" d1 d2;
  let chain = ebgp_chain_cfgs () in
  let base = dump (compute chain) in
  let par =
    dump
      (compute
         ~options:{ Dataplane.default_options with domains = 4 }
         chain)
  in
  check Alcotest.(list string) "parallel equals sequential" base par

(* Two spines and six leaves, all eBGP. Each leaf filters what it learns
   through an AS-path list of its own that drops the next leaf's routes, so
   the leaves — one color class, exchanged in parallel — compile and match
   different regexes on different domains at once. *)
let as_path_fabric_cfgs () =
  let leaves = 6 in
  let leaf i =
    let filtered = 65100 + (i mod leaves) + 1 in
    let uplink k =
      [ Printf.sprintf " neighbor 10.%d.%d.1 remote-as 6500%d" k i k;
        Printf.sprintf " neighbor 10.%d.%d.1 route-map IN%d in" k i i ]
    in
    [ Printf.sprintf "hostname leaf%d" i;
      "interface up1"; Printf.sprintf " ip address 10.1.%d.2 255.255.255.252" i;
      "interface up2"; Printf.sprintf " ip address 10.2.%d.2 255.255.255.252" i;
      "interface lan"; Printf.sprintf " ip address 172.16.%d.1 255.255.255.0" i;
      Printf.sprintf "ip as-path access-list PATHS%d deny _%d_" i filtered;
      Printf.sprintf "ip as-path access-list PATHS%d permit ^6500[12]_" i;
      Printf.sprintf "route-map IN%d permit 10" i;
      Printf.sprintf " match as-path PATHS%d" i;
      Printf.sprintf "router bgp %d" (65100 + i);
      Printf.sprintf " bgp router-id 10.255.0.%d" i ]
    @ uplink 1 @ uplink 2
    @ [ Printf.sprintf " network 172.16.%d.0 mask 255.255.255.0" i ]
  in
  let spine k =
    [ Printf.sprintf "hostname spine%d" k ]
    @ List.concat_map
        (fun i ->
          [ Printf.sprintf "interface down%d" i;
            Printf.sprintf " ip address 10.%d.%d.1 255.255.255.252" k i ])
        (List.init leaves succ)
    @ [ Printf.sprintf "router bgp 6500%d" k;
        Printf.sprintf " bgp router-id 10.254.0.%d" k ]
    @ List.map
        (fun i -> Printf.sprintf " neighbor 10.%d.%d.2 remote-as %d" k i (65100 + i))
        (List.init leaves succ)
  in
  [ spine 1; spine 2 ] @ List.init leaves (fun i -> leaf (i + 1))

let as_path_parallel () =
  let cfgs = as_path_fabric_cfgs () in
  let serial = compute cfgs in
  (* the lists filter: leaf1 drops leaf2's LAN and keeps leaf3's *)
  check Alcotest.int "leaf2 filtered at leaf1" 0
    (List.length (routes_to "leaf1" serial "172.16.2.0/24"));
  check Alcotest.bool "leaf3 kept at leaf1" true
    (routes_to "leaf1" serial "172.16.3.0/24" <> []);
  let par = compute ~options:{ Dataplane.default_options with domains = 2 } cfgs in
  check Alcotest.(list string) "domains=2 equals domains=1" (dump serial) (dump par)

(* --- session establishment failures --- *)

let session_down_reasons () =
  let r1 =
    [ "hostname r1";
      "interface e1"; " ip address 10.0.12.1 255.255.255.252";
      " ip access-group BLOCK_BGP out";
      "ip access-list extended BLOCK_BGP";
      " 10 deny tcp any any eq 179";
      " 15 deny tcp any eq 179 any";
      " 20 permit ip any any";
      "router bgp 100";
      " neighbor 10.0.12.2 remote-as 200" ]
  and r2 =
    [ "hostname r2";
      "interface e1"; " ip address 10.0.12.2 255.255.255.252";
      "router bgp 200";
      " neighbor 10.0.12.1 remote-as 100" ]
  in
  let dp = compute [ r1; r2 ] in
  let down = List.filter (fun s -> not s.Dataplane.sr_established) dp.Dataplane.sessions in
  check Alcotest.int "both sides down" 2 (List.length down);
  check Alcotest.bool "acl reason" true
    (List.exists
       (fun s ->
         match s.Dataplane.sr_reason with
         | Some r -> r = "BGP TCP session blocked by ACL"
         | None -> false)
       down)

(* An ACL blocking only one connection direction does not bring the session
   down: the other side can still initiate (a real-router subtlety). *)
let session_one_way_acl () =
  let r1 =
    [ "hostname r1";
      "interface e1"; " ip address 10.0.12.1 255.255.255.252";
      " ip access-group HALF out";
      "ip access-list extended HALF";
      " 10 deny tcp any any eq 179";
      " 20 permit ip any any";
      "router bgp 100";
      " neighbor 10.0.12.2 remote-as 200" ]
  and r2 =
    [ "hostname r2";
      "interface e1"; " ip address 10.0.12.2 255.255.255.252";
      "router bgp 200";
      " neighbor 10.0.12.1 remote-as 100" ]
  in
  let dp = compute [ r1; r2 ] in
  check Alcotest.bool "session survives one-way block" true
    (List.for_all (fun s -> s.Dataplane.sr_established) dp.Dataplane.sessions)

let session_as_mismatch () =
  let r1 =
    [ "hostname r1";
      "interface e1"; " ip address 10.0.12.1 255.255.255.252";
      "router bgp 100";
      " neighbor 10.0.12.2 remote-as 999" ]
  and r2 =
    [ "hostname r2";
      "interface e1"; " ip address 10.0.12.2 255.255.255.252";
      "router bgp 200";
      " neighbor 10.0.12.1 remote-as 100" ]
  in
  let dp = compute [ r1; r2 ] in
  check Alcotest.bool "as mismatch detected" true
    (List.exists
       (fun s ->
         (not s.Dataplane.sr_established)
         && (match s.Dataplane.sr_reason with
             | Some r -> String.length r >= 8 && String.sub r 0 8 = "remote-a"
             | None -> false))
       dp.Dataplane.sessions)

(* --- environment: link down changes routing --- *)

let link_down () =
  let r1 =
    [ "hostname r1";
      "interface e12"; " ip address 10.0.12.1 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 10";
      "interface e13"; " ip address 10.0.13.1 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 100";
      "router ospf 1" ]
  and r2 =
    [ "hostname r2";
      "interface e12"; " ip address 10.0.12.2 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 10";
      "interface e23"; " ip address 10.0.23.1 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 10";
      "router ospf 1" ]
  and r3 =
    [ "hostname r3";
      "interface Loopback0"; " ip address 3.3.3.3 255.255.255.255"; " ip ospf area 0"; " ip ospf cost 1";
      "interface e13"; " ip address 10.0.13.2 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 100";
      "interface e23"; " ip address 10.0.23.2 255.255.255.252"; " ip ospf area 0"; " ip ospf cost 10";
      "router ospf 1"; " passive-interface Loopback0" ]
  in
  let base = compute [ r1; r2; r3 ] in
  (match routes_to "r1" base "3.3.3.3/32" with
   | [ r ] -> check Alcotest.int "via r2" 21 r.Route.metric
   | _ -> Alcotest.fail "expected route");
  let env = Dp_env.make ~down_links:[ ("r1", "e12") ] [] in
  let broken = compute ~env [ r1; r2; r3 ] in
  (match routes_to "r1" broken "3.3.3.3/32" with
   | [ r ] -> check Alcotest.int "fails over to direct" 101 r.Route.metric
   | _ -> Alcotest.fail "expected failover route")

let suites =
  [ ( "dataplane.ospf",
      [ Alcotest.test_case "triangle" `Quick ospf_triangle;
        Alcotest.test_case "ecmp" `Quick ospf_ecmp;
        Alcotest.test_case "link down" `Quick link_down ] );
    ( "dataplane.bgp",
      [ Alcotest.test_case "ebgp chain" `Quick ebgp_chain;
        Alcotest.test_case "ibgp rr" `Quick ibgp_rr;
        Alcotest.test_case "statics" `Quick statics ] );
    ( "dataplane.convergence",
      [ Alcotest.test_case "fig1b colored" `Quick fig1b_colored;
        Alcotest.test_case "fig1b lockstep" `Quick fig1b_lockstep;
        Alcotest.test_case "determinism" `Quick determinism;
        Alcotest.test_case "as-path lists across domains" `Quick as_path_parallel ] );
    ( "dataplane.sessions",
      [ Alcotest.test_case "acl blocks tcp/179" `Quick session_down_reasons;
        Alcotest.test_case "one-way acl still up" `Quick session_one_way_acl;
        Alcotest.test_case "as mismatch" `Quick session_as_mismatch ] ) ]

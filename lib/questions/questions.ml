type answer = {
  a_title : string;
  a_header : string list;
  a_rows : string list list;
}

let answer_to_string a =
  Printf.sprintf "%s (%d rows)\n%s" a.a_title (List.length a.a_rows)
    (Table.to_string ~header:a.a_header a.a_rows)

let print_answer a = print_string (answer_to_string a)

(* --- configuration questions --- *)

let init_issues parsed =
  let rows =
    List.concat_map
      (fun ((cfg : Vi.t), diags) ->
        List.map
          (fun (d : Diag.t) ->
            [ cfg.hostname;
              (match d.d_loc.loc_line with Some l -> string_of_int l | None -> "-");
              d.d_code; d.d_message ])
          diags)
      parsed
  in
  { a_title = "initIssues"; a_header = [ "node"; "line"; "issue"; "text" ]; a_rows = rows }

let diagnostics diags =
  let rows =
    List.map
      (fun (d : Diag.t) ->
        [ Diag.severity_to_string d.d_severity; Diag.phase_to_string d.d_phase;
          d.d_code; Diag.location_to_string d.d_loc; d.d_message ])
      diags
  in
  { a_title = "diagnostics";
    a_header = [ "severity"; "phase"; "code"; "location"; "message" ];
    a_rows = rows }

let undefined_references configs =
  let rows =
    List.concat_map
      (fun (cfg : Vi.t) ->
        List.map
          (fun (ty, name, where) -> [ cfg.hostname; ty; name; where ])
          (Parse.undefined_references cfg))
      configs
  in
  { a_title = "undefinedReferences"; a_header = [ "node"; "type"; "name"; "context" ];
    a_rows = rows }

(* A structure is unused if nothing in the config mentions it. The analysis
   itself lives in the lint registry (LINT002); this is the tabular view. *)
let unused_structures configs =
  let rows =
    List.concat_map
      (fun (cfg : Vi.t) ->
        List.map
          (fun (ty, name) -> [ cfg.hostname; ty; name ])
          (Lint.unused_structures cfg))
      configs
  in
  { a_title = "unusedStructures"; a_header = [ "node"; "type"; "name" ]; a_rows = rows }

let duplicate_ips configs =
  let rows =
    List.map
      (fun (ip, users) ->
        [ Ipv4.to_string ip;
          String.concat ", "
            (List.map (fun (n, i) -> Printf.sprintf "%s[%s]" n i) users) ])
      (Lint.duplicate_ips configs)
  in
  { a_title = "duplicateIps"; a_header = [ "ip"; "owners" ];
    a_rows = List.sort compare rows }

let bgp_session_compatibility configs =
  let rows =
    List.map
      (fun (node, peer, text, _severity) -> [ node; Ipv4.to_string peer; text ])
      (Lint.bgp_session_issues configs)
  in
  { a_title = "bgpSessionCompatibility"; a_header = [ "node"; "peer"; "issue" ];
    a_rows = rows }

(* The full lint report as a table (same findings as the lint CLI). *)
(* The incremental-update summary (ISSUE 4): how much work the engine
   actually redid after a change, as a uniform metric table. *)
let incremental_update ~files_changed ~files_reparsed ~nodes_changed ~components
    ~dirty_components ~nodes_simulated ~nodes_reused ~frontier_size
    ~nodes_converged_early ~forwarding_rebuilt ~memo_invalidated =
  let rows =
    [ [ "filesChanged"; string_of_int files_changed ];
      [ "filesReparsed"; string_of_int files_reparsed ];
      [ "nodesChanged"; String.concat " " nodes_changed ];
      [ "dependencyComponents"; string_of_int components ];
      [ "dirtyComponents"; string_of_int dirty_components ];
      [ "nodesSimulated"; string_of_int nodes_simulated ];
      [ "nodesReused"; string_of_int nodes_reused ];
      [ "frontierSize"; string_of_int frontier_size ];
      [ "nodesConvergedEarly"; string_of_int nodes_converged_early ];
      [ "forwardingRebuilt"; string_of_bool forwarding_rebuilt ];
      [ "memoEntriesInvalidated"; string_of_int memo_invalidated ] ]
  in
  { a_title = "incrementalUpdate"; a_header = [ "metric"; "value" ]; a_rows = rows }

let lint (report : Lint.report) =
  let rows =
    List.concat_map
      (fun ((p : Lint.pass), findings) ->
        List.map
          (fun (d : Diag.t) ->
            [ d.Diag.d_code; p.Lint.p_name;
              Diag.severity_to_string d.d_severity;
              Diag.location_to_string d.d_loc; d.d_message ])
          findings)
      report.Lint.r_results
  in
  { a_title = "lint";
    a_header = [ "code"; "pass"; "severity"; "location"; "message" ];
    a_rows = rows }

let property_consistency configs =
  let properties =
    [ ("ntp-servers", fun (c : Vi.t) -> c.ntp_servers);
      ("dns-servers", fun (c : Vi.t) -> c.dns_servers);
      ("logging-hosts", fun (c : Vi.t) -> c.logging_servers);
      ("snmp-community", fun (c : Vi.t) -> Option.to_list c.snmp_community) ]
  in
  let rows =
    List.concat_map
      (fun (prop, get) ->
        let values =
          List.map (fun c -> (c.Vi.hostname, String.concat "," (List.sort compare (get c)))) configs
        in
        let counts = Hashtbl.create 8 in
        List.iter
          (fun (_, v) ->
            Hashtbl.replace counts v (1 + Option.value (Hashtbl.find_opt counts v) ~default:0))
          values;
        let majority, _ =
          Hashtbl.fold
            (fun v c ((_, best) as acc) -> if c > best then (v, c) else acc)
            counts ("", 0)
        in
        List.filter_map
          (fun (node, v) ->
            if v <> majority then
              Some [ node; prop; (if v = "" then "(unset)" else v);
                     (if majority = "" then "(unset)" else majority) ]
            else None)
          values)
      properties
  in
  { a_title = "propertyConsistency (outliers)";
    a_header = [ "node"; "property"; "value"; "majority" ]; a_rows = rows }

let interface_properties configs =
  let rows =
    List.concat_map
      (fun (cfg : Vi.t) ->
        List.map
          (fun (i : Vi.interface) ->
            [ cfg.hostname; i.if_name;
              (match i.if_address with
               | Some (ip, len) -> Printf.sprintf "%s/%d" (Ipv4.to_string ip) len
               | None -> "-");
              (if i.if_enabled then "up" else "admin-down");
              Option.value i.if_in_acl ~default:"-";
              Option.value i.if_out_acl ~default:"-";
              (match i.if_ospf with
               | Some o -> Printf.sprintf "area %d" o.oi_area
               | None -> "-") ])
          cfg.interfaces)
      configs
  in
  { a_title = "interfaceProperties";
    a_header = [ "node"; "interface"; "address"; "state"; "inAcl"; "outAcl"; "ospf" ];
    a_rows = rows }

let node_properties configs =
  let rows =
    List.map
      (fun (cfg : Vi.t) ->
        [ cfg.hostname; cfg.vendor;
          string_of_int (List.length cfg.interfaces);
          (match cfg.bgp with
           | Some b -> string_of_int b.bp_as
           | None -> "-");
          (if cfg.ospf <> None then "yes" else "no");
          string_of_int (List.length cfg.acls);
          string_of_int (List.length cfg.route_maps) ])
      configs
  in
  { a_title = "nodeProperties";
    a_header = [ "node"; "vendor"; "interfaces"; "bgpAs"; "ospf"; "acls"; "routeMaps" ];
    a_rows = rows }

(* --- data-plane questions --- *)

let bgp_session_status (dp : Dataplane.t) =
  let rows =
    List.map
      (fun (s : Dataplane.session_report) ->
        [ s.sr_node; Ipv4.to_string s.sr_peer;
          Option.value s.sr_remote_node ~default:"(external)";
          (if s.sr_is_ibgp then "ibgp" else "ebgp");
          (if s.sr_established then "ESTABLISHED" else "DOWN");
          Option.value s.sr_reason ~default:"-" ])
      dp.sessions
  in
  { a_title = "bgpSessionStatus";
    a_header = [ "node"; "peer"; "remoteNode"; "type"; "state"; "reason" ];
    a_rows = rows }

let routes ?node ?protocol (dp : Dataplane.t) =
  let rows =
    List.concat_map
      (fun name ->
        if node <> None && node <> Some name then []
        else
          match Dataplane.node_opt dp name with
          | None -> [] (* quarantined or otherwise missing *)
          | Some nr ->
          Rib.fold_best
            (fun _ best acc ->
              List.filter_map
                (fun (r : Route.t) ->
                  let proto = Route_proto.to_string r.protocol in
                  if protocol <> None && protocol <> Some proto then None
                  else
                    Some
                      [ name; Prefix.to_string r.net; proto;
                        (match r.next_hop with
                         | Route.Nh_ip ip -> Ipv4.to_string ip
                         | Route.Nh_iface i -> i
                         | Route.Nh_discard -> "discard");
                        string_of_int r.admin; string_of_int r.metric ])
                best
              @ acc)
            nr.Dataplane.nr_main [])
      dp.node_order
  in
  { a_title = "routes";
    a_header = [ "node"; "network"; "protocol"; "nextHop"; "admin"; "metric" ];
    a_rows = rows }

let test_filters (cfg : Vi.t) ~acl pkt =
  let rows =
    match Vi.find_acl cfg acl with
    | None -> [ [ cfg.hostname; acl; "UNDEFINED"; "-" ] ]
    | Some a ->
      let action, line = Acl_eval.action a pkt in
      [ [ cfg.hostname; acl;
          (match action with
           | Vi.Permit -> "PERMIT"
           | Vi.Deny -> "DENY");
          (match line with
           | Some l -> l.l_text
           | None -> "(implicit deny)") ] ]
  in
  { a_title = Printf.sprintf "testFilters %s" (Packet.to_string pkt);
    a_header = [ "node"; "filter"; "action"; "matchedLine" ]; a_rows = rows }

let search_filters env (cfg : Vi.t) ~acl ~action =
  let man = Pktset.man env in
  let rows =
    match Vi.find_acl cfg acl with
    | None -> [ [ cfg.hostname; acl; "UNDEFINED"; "-" ] ]
    | Some a ->
      (* per-line reachable match space: line space minus earlier lines *)
      let earlier = ref Bdd.bot in
      List.filter_map
        (fun (l : Vi.acl_line) ->
          let space = Bdd.bdiff man (Acl_bdd.line env l) !earlier in
          earlier := Bdd.bor man !earlier (Acl_bdd.line env l);
          if l.l_action <> action then None
          else if Bdd.is_bot space then
            Some [ cfg.hostname; l.l_text; "UNMATCHABLE"; "-" ]
          else
            let pkt = Pktset.to_packet env ~prefs:(Pktset.standard_prefs env ()) space in
            Some
              [ cfg.hostname; l.l_text; "example";
                (match pkt with
                 | Some p -> Packet.to_string p
                 | None -> "-") ])
        a.acl_lines
  in
  { a_title = Printf.sprintf "searchFilters action=%s" (Vi.action_to_string action);
    a_header = [ "node"; "line"; "kind"; "packet" ]; a_rows = rows }

(* testRoutePolicies: run a candidate route through a named policy and show
   the verdict plus every attribute the policy changed. *)
let test_route_policy (cfg : Vi.t) ~policy (r : Route.t) =
  let ctx = Policy_eval.make_ctx cfg in
  let rows =
    match Policy_eval.run_named ctx policy r with
    | Policy_eval.Denied -> [ [ cfg.hostname; policy; "DENY"; "-" ] ]
    | Policy_eval.Accepted r' ->
      let a = Route.get_attrs r and a' = Route.get_attrs r' in
      let changes =
        List.filter_map Fun.id
          [ (if a.Attrs.local_pref <> a'.Attrs.local_pref then
               Some (Printf.sprintf "localPref %d->%d" a.Attrs.local_pref a'.Attrs.local_pref)
             else None);
            (if a.Attrs.med <> a'.Attrs.med then
               Some (Printf.sprintf "med %d->%d" a.Attrs.med a'.Attrs.med)
             else None);
            (if a.Attrs.communities <> a'.Attrs.communities then
               Some
                 (Printf.sprintf "communities [%s]"
                    (String.concat " " (List.map Vi.community_to_string a'.Attrs.communities)))
             else None);
            (if a.Attrs.as_path <> a'.Attrs.as_path then
               Some (Printf.sprintf "asPath [%s]" (Attrs.as_path_to_string a'.Attrs.as_path))
             else None);
            (if r.Route.next_hop <> r'.Route.next_hop then Some "nextHop changed" else None);
            (if r.Route.tag <> r'.Route.tag then
               Some (Printf.sprintf "tag %d->%d" r.Route.tag r'.Route.tag)
             else None) ]
      in
      [ [ cfg.hostname; policy; "PERMIT";
          (if changes = [] then "(unchanged)" else String.concat ", " changes) ] ]
  in
  { a_title = Printf.sprintf "testRoutePolicies %s" (Route.to_string r);
    a_header = [ "node"; "policy"; "action"; "changes" ]; a_rows = rows }

let traceroute ~configs ~dp ~start ?ingress pkt =
  let traces = Traceroute.run ~configs ~dp ~start ?ingress pkt in
  let rows =
    List.mapi
      (fun i (tr : Traceroute.trace) ->
        [ string_of_int (i + 1);
          String.concat " -> " (List.map (fun (h : Traceroute.hop) -> h.h_node) tr.hops);
          Traceroute.disposition_to_string tr.disposition ])
      traces
  in
  { a_title = Printf.sprintf "traceroute %s from %s" (Packet.to_string pkt) start;
    a_header = [ "path"; "hops"; "disposition" ]; a_rows = rows }

let reachability q ~src ~dst_ip ?hdr () =
  let env = Fquery.env q in
  let man = Pktset.man env in
  let hdr = Option.value hdr ~default:Bdd.top in
  let delivered = Fquery.reachable q ~src ~hdr ~dst_ip () in
  let want = Bdd.conj man [ hdr; Pktset.dst_prefix env dst_ip; Fquery.clean q ] in
  let violating = Bdd.bdiff man want delivered in
  let neg, pos =
    Fquery.pick_examples q ~dst_prefix:dst_ip ~violating ~holding:want ()
  in
  let node, iface = src in
  let rows =
    [ [ "verdict";
        (if Bdd.is_bot violating then "ALL FLOWS DELIVERED"
         else if Bdd.is_bot delivered then "NO FLOW DELIVERED"
         else "PARTIAL") ];
      [ "counterexample";
        (match neg with
         | Some p -> Packet.to_string p
         | None -> "-") ];
      [ "positive example";
        (match pos with
         | Some p -> Packet.to_string p
         | None -> "-") ] ]
  in
  { a_title =
      Printf.sprintf "reachability %s[%s] -> %s" node
        (Option.value iface ~default:"originated")
        (Prefix.to_string dst_ip);
    a_header = [ "field"; "value" ]; a_rows = rows }

let multipath_consistency ?pool ?(domains = 1) ?(auto = false) q =
  let env = Fquery.env q in
  let violations = Fpar.multipath_consistency ?pool ~domains ~auto q in
  let rows =
    List.map
      (fun (((node, iface) : Fquery.start), v) ->
        [ node; Option.value iface ~default:"-";
          (match Pktset.to_packet env ~prefs:(Pktset.standard_prefs env ()) v with
           | Some p -> Packet.to_string p
           | None -> "-") ])
      violations
  in
  { a_title = "multipathConsistency";
    a_header = [ "node"; "interface"; "exampleFlow" ]; a_rows = rows }

(* Rows are O(starts x destinations), but the distinct (destination,
   witness) pairs among them are few: interchangeable starts share rows and
   a fabric delivers the same set to many destinations. Each distinct pair
   is rendered once, and every row carrying it shares the same [dst; flow]
   tail cells. *)
let all_pairs_reachability ?pool ?(domains = 1) ?(auto = false) q =
  let tails = Hashtbl.create 1024 in
  let tail (r : Fquery.reach_row) =
    let key = (r.rr_dst, r.rr_example) in
    match Hashtbl.find_opt tails key with
    | Some cells -> cells
    | None ->
      let flow =
        match r.rr_example with
        | Some p -> Packet.to_string p
        | None -> "-"
      in
      let cells = [ r.rr_dst; flow ] in
      Hashtbl.add tails key cells;
      cells
  in
  let rows =
    List.map
      (fun (r : Fquery.reach_row) ->
        let node, iface = r.rr_src in
        node :: Option.value iface ~default:"-" :: tail r)
      (Fpar.all_pairs ?pool ~domains ~auto q)
  in
  { a_title = "allPairsReachability";
    a_header = [ "srcNode"; "srcInterface"; "dstNode"; "exampleFlow" ];
    a_rows = rows }

let detect_loops q =
  let env = Fquery.env q in
  let rows =
    List.map
      (fun (nodes, set) ->
        [ String.concat " -> " nodes;
          (match Pktset.to_packet env set with
           | Some p -> Packet.to_string p
           | None -> "-") ])
      (Fquery.find_loops q)
  in
  { a_title = "detectLoops"; a_header = [ "cycle"; "examplePacket" ]; a_rows = rows }

let differential_reachability q_base q_new ~srcs =
  let env = Fquery.env q_base in
  let man = Pktset.man env in
  let base = Fquery.to_delivered q_base () in
  let fresh = Fquery.to_delivered q_new () in
  let rows =
    List.concat_map
      (fun ((node, iface) as s) ->
        let set q sets =
          match
            (match iface with
             | Some i -> Fgraph.loc_id q.Fquery.g (Fgraph.Src (node, i))
             | None -> Fgraph.loc_id q.Fquery.g (Fgraph.Fwd node))
          with
          | Some id -> Bdd.band man sets.(id) (Fquery.clean q)
          | None -> Bdd.bot
        in
        let b = set q_base base and n = set q_new fresh in
        let lost = Bdd.bdiff man b n and gained = Bdd.bdiff man n b in
        let describe kind v =
          if Bdd.is_bot v then None
          else
            Some
              [ node; Option.value iface ~default:"-"; kind;
                (match Pktset.to_packet env ~prefs:(Pktset.standard_prefs env ()) v with
                 | Some p -> Packet.to_string p
                 | None -> "-") ]
        in
        List.filter_map Fun.id [ describe "LOST" lost; describe "GAINED" gained ]
        |> fun r ->
        ignore s;
        r)
      srcs
  in
  { a_title = "differentialReachability";
    a_header = [ "node"; "interface"; "change"; "exampleFlow" ]; a_rows = rows }

(* --- failure verification (ISSUE 6) --- *)

let failure_verification (r : Failures.report) =
  let rows =
    List.map
      (fun p ->
        match List.find_opt (fun (p', _, _) -> p' = p) r.Failures.rp_failing with
        | Some (_, sc, pkt) ->
          [ Failures.property_to_string p; "fails";
            Failures.scenario_to_string sc;
            (match pkt with
             | Some pk -> Packet.to_string pk
             | None -> "-") ]
        | None -> [ Failures.property_to_string p; "survives"; "-"; "-" ])
      r.Failures.rp_properties
  in
  { a_title = Printf.sprintf "failureVerification(k=%d)" r.Failures.rp_k;
    a_header = [ "property"; "verdict"; "minFailingScenario"; "counterexample" ];
    a_rows = rows }

let failure_summary (r : Failures.report) =
  let metric name v = [ name; v ] in
  { a_title = Printf.sprintf "failureVerification(k=%d): sweep" r.Failures.rp_k;
    a_header = [ "metric"; "value" ];
    a_rows =
      [ metric "scenariosEnumerated" (string_of_int r.Failures.rp_enumerated);
        metric "scenariosSimulated" (string_of_int r.Failures.rp_simulated);
        metric "scenariosPruned" (string_of_int r.Failures.rp_pruned);
        metric "atomPruning"
          (if r.Failures.rp_pruning then
             Printf.sprintf "on (%d atoms)" r.Failures.rp_atoms
           else "off");
        metric "properties"
          (let n = List.length r.Failures.rp_properties in
           if r.Failures.rp_dropped_properties > 0 then
             Printf.sprintf "%d (+%d beyond cap)" n r.Failures.rp_dropped_properties
           else string_of_int n);
        metric "surviving" (string_of_int (List.length r.Failures.rp_surviving));
        metric "failing" (string_of_int (List.length r.Failures.rp_failing));
        metric "inconclusive"
          (string_of_int (List.length r.Failures.rp_inconclusive)) ] }

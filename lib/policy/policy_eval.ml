type ctx = {
  cfg : Vi.t;
  semantics : Semantics.t;
  self_ip : Ipv4.t option;
}

let make_ctx ?self_ip cfg =
  { cfg; semantics = Semantics.for_vendor cfg.Vi.vendor; self_ip }

type result = Accepted of Route.t | Denied

(* --- prefix lists --- *)

let entry_matches (e : Vi.prefix_list_entry) p =
  let elen = Prefix.length e.ple_prefix and plen = Prefix.length p in
  let network_ok =
    plen >= elen && Prefix.contains e.ple_prefix (Prefix.network p)
  in
  let len_ok =
    match (e.ple_ge, e.ple_le) with
    | None, None -> plen = elen
    | Some g, None -> plen >= g
    | None, Some l -> plen <= l
    | Some g, Some l -> plen >= g && plen <= l
  in
  network_ok && len_ok

let prefix_list_permits (pl : Vi.prefix_list) p =
  let rec go = function
    | [] -> false
    | e :: rest -> if entry_matches e p then e.Vi.ple_action = Vi.Permit else go rest
  in
  go pl.pl_entries

let run_prefix_list_named ctx name p =
  match Vi.find_prefix_list ctx.cfg name with
  | Some pl -> prefix_list_permits pl p
  | None -> ctx.semantics.Semantics.undefined_prefix_list_permits

(* --- community lists --- *)

let community_list_matches (cl : Vi.community_list) communities =
  let rec go = function
    | [] -> false
    | (action, c) :: rest ->
      if List.mem c communities then action = Vi.Permit else go rest
  in
  go cl.cl_entries

(* --- AS-path regexes --- *)

(* Cisco AS-path regex: '_' matches a delimiter (space, start, end). Paths
   print as "65001 65002". Translate to a POSIX regex on that string. *)
let translate_as_regex s =
  let buf = Buffer.create (String.length s + 16) in
  String.iter
    (fun c ->
      match c with
      | '_' -> Buffer.add_string buf "( |^|$)"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Compiled regexes are cached per domain, like the [Attrs] pools: BGP
   route exchange evaluates policies on several domains at once, a
   [Hashtbl] is not safe to mutate concurrently, and a [Re.re] builds its
   automaton lazily as it matches, so even a compiled regex cannot be shared
   across domains. *)
let regex_cache : (string, Re.re) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let as_path_regex_matches regex path =
  let regex_cache = Domain.DLS.get regex_cache in
  let re =
    match Hashtbl.find_opt regex_cache regex with
    | Some re -> re
    | None ->
      let re =
        try Re.Posix.compile_pat (translate_as_regex regex)
        with _ -> Re.compile (Re.str regex)
      in
      Hashtbl.add regex_cache regex re;
      re
  in
  Re.execp re (Attrs.as_path_to_string path)

let as_path_list_matches (apl : Vi.as_path_list) path =
  let rec go = function
    | [] -> false
    | (action, regex) :: rest ->
      if as_path_regex_matches regex path then action = Vi.Permit else go rest
  in
  go apl.apl_entries

(* --- match conditions --- *)

let cond_matches ctx (r : Route.t) = function
  | Vi.Match_prefix_list name -> run_prefix_list_named ctx name r.net
  | Vi.Match_prefix p -> Prefix.equal p r.net
  | Vi.Match_community name -> (
    match Vi.find_community_list ctx.cfg name with
    | Some cl -> community_list_matches cl (Route.get_attrs r).Attrs.communities
    | None -> false)
  | Vi.Match_as_path name -> (
    match Vi.find_as_path_list ctx.cfg name with
    | Some apl -> as_path_list_matches apl (Route.get_attrs r).Attrs.as_path
    | None -> false)
  | Vi.Match_metric m -> r.metric = m
  | Vi.Match_tag t -> r.tag = t
  | Vi.Match_protocol p -> Route_proto.matches_source r.protocol p

(* --- set actions --- *)

let apply_set ctx (r : Route.t) set =
  let attrs = Route.get_attrs r in
  match set with
  | Vi.Set_local_pref v -> { r with attrs = Some (Attrs.update ~local_pref:v attrs) }
  | Vi.Set_metric v ->
    { r with metric = v; attrs = Some (Attrs.update ~med:v attrs) }
  | Vi.Set_communities (cs, additive) ->
    let communities = if additive then cs @ attrs.Attrs.communities else cs in
    { r with attrs = Some (Attrs.update ~communities attrs) }
  | Vi.Set_next_hop ip -> { r with next_hop = Route.Nh_ip ip }
  | Vi.Set_next_hop_self -> (
    match ctx.self_ip with
    | Some ip -> { r with next_hop = Route.Nh_ip ip }
    | None -> r)
  | Vi.Set_as_path_prepend asns ->
    { r with attrs = Some (Attrs.update ~as_path:(asns @ attrs.Attrs.as_path) attrs) }
  | Vi.Set_weight w -> { r with attrs = Some (Attrs.update ~weight:w attrs) }
  | Vi.Set_tag t -> { r with tag = t }
  | Vi.Set_origin o -> { r with attrs = Some (Attrs.update ~origin:o attrs) }

let run_route_map ctx (rm : Vi.route_map) r =
  let rec go = function
    | [] -> Denied (* implicit deny at the end *)
    | (c : Vi.rm_clause) :: rest ->
      if List.for_all (cond_matches ctx r) c.rc_matches then
        match c.rc_action with
        | Vi.Permit -> Accepted (List.fold_left (apply_set ctx) r c.rc_sets)
        | Vi.Deny -> Denied
      else go rest
  in
  go rm.rm_clauses

let run_named ctx name r =
  match Vi.find_route_map ctx.cfg name with
  | Some rm -> run_route_map ctx rm r
  | None ->
    if ctx.semantics.Semantics.undefined_route_map_permits then Accepted r else Denied

let run_optional ctx policy r =
  match policy with
  | Some name -> run_named ctx name r
  | None -> Accepted r

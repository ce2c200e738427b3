type action =
  | Forward of { out_iface : string; gateway : Ipv4.t option }
  | Drop_null
  | Receive

type entry = { fe_prefix : Prefix.t; fe_actions : action list; fe_route : Route.t list }
type t = { trie : entry Prefix_trie.t }

(* Resolve a route's next hop to concrete forwarding actions. A gateway that
   is not directly connected resolves recursively through the RIB (bounded,
   as routers bound recursion). *)
let resolve ~node ~topo rib (route : Route.t) =
  let connected_out ip =
    List.find_opt (fun (ep : L3.endpoint) -> Prefix.contains ep.ep_prefix ip)
      (L3.endpoints topo node)
  in
  let rec go depth (nh : Route.next_hop) =
    if depth > 8 then []
    else
      match nh with
      | Route.Nh_discard -> [ Drop_null ]
      | Route.Nh_iface iface -> [ Forward { out_iface = iface; gateway = None } ]
      | Route.Nh_ip ip -> (
        match connected_out ip with
        | Some ep ->
          if ep.ep_ip = ip then [ Receive ]
          else [ Forward { out_iface = ep.ep_iface; gateway = Some ip } ]
        | None -> (
          match Rib.lookup rib ip with
          | None -> []
          | Some (_, routes) ->
            List.concat_map (fun (r : Route.t) -> go (depth + 1) r.next_hop) routes))
  in
  go 0 route.next_hop

let of_rib ~node ~topo rib =
  let trie =
    Rib.fold_best
      (fun prefix best acc ->
        if best = [] then acc
        else
          let actions =
            List.sort_uniq compare
              (List.concat_map
                 (fun (r : Route.t) ->
                   if r.protocol = Route_proto.Local then [ Receive ]
                   else resolve ~node ~topo rib r)
                 best)
          in
          if actions = [] then acc
          else
            Prefix_trie.add prefix
              { fe_prefix = prefix; fe_actions = actions; fe_route = best }
              acc)
      rib Prefix_trie.empty
  in
  { trie }

let lookup_entry t ip =
  Option.map snd (Prefix_trie.longest_match ip t.trie)

let lookup t ip =
  match lookup_entry t ip with
  | Some e -> e.fe_actions
  | None -> []

let entries t = List.map snd (Prefix_trie.to_list t.trie)
let entry_count t = Prefix_trie.cardinal t.trie

let action_to_string = function
  | Forward { out_iface; gateway = Some g } ->
    Printf.sprintf "out %s via %s" out_iface (Ipv4.to_string g)
  | Forward { out_iface; gateway = None } -> Printf.sprintf "out %s (attached)" out_iface
  | Drop_null -> "null-route"
  | Receive -> "receive"

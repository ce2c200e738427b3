type next_hop = Nh_ip of Ipv4.t | Nh_iface of string | Nh_discard

type t = {
  net : Prefix.t;
  protocol : Route_proto.t;
  admin : int;
  metric : int;
  next_hop : next_hop;
  tag : int;
  attrs : Attrs.t option;
  arrival : int;
  from_peer : Ipv4.t;
  from_rid : Ipv4.t;
  ospf_area : int;
}

let base net protocol admin metric next_hop =
  { net; protocol; admin; metric; next_hop; tag = 0; attrs = None; arrival = 0;
    from_peer = 0; from_rid = 0; ospf_area = 0 }

let connected ~net ~iface = base net Route_proto.Connected 0 0 (Nh_iface iface)
let local ~ip ~iface = base (Prefix.host ip) Route_proto.Local 0 0 (Nh_iface iface)

let static ~net ~nh ~ad ~tag =
  { (base net Route_proto.Static ad 0 nh) with tag }

let ospf ~proto ~net ~nh ~metric ~area =
  { (base net proto (Route_proto.admin_distance proto) metric nh) with
    ospf_area = area }

let bgp ~proto ~net ~nh ~attrs ~arrival ~from_peer ~from_rid =
  { (base net proto (Route_proto.admin_distance proto) 0 nh) with
    attrs = Some attrs; arrival; from_peer; from_rid;
    metric = attrs.Attrs.med }

let get_attrs r = Option.value r.attrs ~default:Attrs.default

let nh_key = function
  | Nh_ip ip -> ip
  | Nh_iface s -> Hashtbl.hash s lor (1 lsl 40)
  | Nh_discard -> 1 lsl 41

let candidate_key r =
  if Route_proto.is_bgp r.protocol then (1, r.from_peer, 0)
  else (0, r.from_peer, nh_key r.next_hop)

let next_hop_ip r =
  match r.next_hop with
  | Nh_ip ip -> Some ip
  | Nh_iface _ | Nh_discard -> None

let next_hop_to_string = function
  | Nh_ip ip -> Ipv4.to_string ip
  | Nh_iface i -> i
  | Nh_discard -> "discard"

let to_string r =
  let a = get_attrs r in
  let bgp_part =
    if Route_proto.is_bgp r.protocol then
      Printf.sprintf " lp=%d med=%d path=[%s]" a.Attrs.local_pref a.Attrs.med
        (Attrs.as_path_to_string a.Attrs.as_path)
    else ""
  in
  Printf.sprintf "%s via %s (%s ad=%d metric=%d)%s" (Prefix.to_string r.net)
    (next_hop_to_string r.next_hop)
    (Route_proto.to_string r.protocol)
    r.admin r.metric bgp_part

let pp fmt r = Format.pp_print_string fmt (to_string r)

(* Both walk the fields without copying either record. [compare_ignoring_arrival]
   goes in declaration order, which is the order polymorphic comparison of
   the two records with [arrival] zeroed uses; [same] tests the cheap integer
   fields first. Route.t holds no floats, so equality is [compare = 0]. *)
let compare_ignoring_arrival a b =
  let c = Prefix.compare a.net b.net in
  if c <> 0 then c
  else
    let c = compare a.protocol b.protocol in
    if c <> 0 then c
    else
      let c = Int.compare a.admin b.admin in
      if c <> 0 then c
      else
        let c = Int.compare a.metric b.metric in
        if c <> 0 then c
        else
          let c = compare a.next_hop b.next_hop in
          if c <> 0 then c
          else
            let c = Int.compare a.tag b.tag in
            if c <> 0 then c
            else
              let c = compare a.attrs b.attrs in
              if c <> 0 then c
              else
                let c = Int.compare a.from_peer b.from_peer in
                if c <> 0 then c
                else
                  let c = Int.compare a.from_rid b.from_rid in
                  if c <> 0 then c else Int.compare a.ospf_area b.ospf_area

let same a b =
  a.from_peer = b.from_peer && a.metric = b.metric && a.admin = b.admin
  && a.tag = b.tag && a.from_rid = b.from_rid && a.ospf_area = b.ospf_area
  && a.protocol = b.protocol && Prefix.equal a.net b.net
  && a.next_hop = b.next_hop
  && Option.equal Attrs.equal a.attrs b.attrs

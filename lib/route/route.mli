(** Routes: the unit of RIB state.

    [arrival] is the logical clock (§4.1.2): BGP best-path selection breaks
    ties on arrival time, like routers do, which removes pathological
    re-advertisement loops. *)

type next_hop = Nh_ip of Ipv4.t | Nh_iface of string | Nh_discard

type t = {
  net : Prefix.t;
  protocol : Route_proto.t;
  admin : int;
  metric : int;
  next_hop : next_hop;
  tag : int;
  attrs : Attrs.t option;  (** BGP only *)
  arrival : int;  (** logical clock; 0 for local routes *)
  from_peer : Ipv4.t;  (** sending peer; 0 when locally originated *)
  from_rid : Ipv4.t;  (** sender's router id *)
  ospf_area : int;
}

val connected : net:Prefix.t -> iface:string -> t
val local : ip:Ipv4.t -> iface:string -> t
val static : net:Prefix.t -> nh:next_hop -> ad:int -> tag:int -> t

val ospf :
  proto:Route_proto.t -> net:Prefix.t -> nh:next_hop -> metric:int -> area:int -> t

val bgp :
  proto:Route_proto.t ->
  net:Prefix.t ->
  nh:next_hop ->
  attrs:Attrs.t ->
  arrival:int ->
  from_peer:Ipv4.t ->
  from_rid:Ipv4.t ->
  t

(** BGP attributes, or defaults for non-BGP routes. *)
val get_attrs : t -> Attrs.t

(** Identity of a candidate within a RIB entry: a newly merged route replaces
    the candidate with the same key (same peer for BGP, same next hop for
    IGPs). *)
val candidate_key : t -> int * int * int

val next_hop_ip : t -> Ipv4.t option
val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** Structural equality ignoring the arrival clock (used for delta
    normalization: a re-learned identical route is not a change). Equal to
    [{ a with arrival = 0 } = { b with arrival = 0 }], without the copies. *)
val same : t -> t -> bool

(** Structural order ignoring the arrival clock: the sign of
    [compare { a with arrival = 0 } { b with arrival = 0 }], without the
    copies. Zero exactly when {!same} holds. *)
val compare_ignoring_arrival : t -> t -> int

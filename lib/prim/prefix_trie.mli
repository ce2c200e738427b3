(** Persistent binary tries keyed by IPv4 prefixes.

    The trie supports exact-prefix operations and longest-prefix matching,
    the core lookup of FIBs and RIBs. *)

type 'a t

val empty : 'a t
val is_empty : 'a t -> bool

(** [add p v t] binds [p] to [v], replacing any existing binding. *)
val add : Prefix.t -> 'a -> 'a t -> 'a t

(** [update p f t] applies [f] to the current binding of [p] (or [None]).
    Returning [None] removes the binding. *)
val update : Prefix.t -> ('a option -> 'a option) -> 'a t -> 'a t

val remove : Prefix.t -> 'a t -> 'a t
val find : Prefix.t -> 'a t -> 'a option

(** [longest_match ip t] is the binding with the longest prefix containing
    [ip], if any. *)
val longest_match : Ipv4.t -> 'a t -> (Prefix.t * 'a) option

(** All bindings whose prefix contains [ip], shortest first. *)
val all_matches : Ipv4.t -> 'a t -> (Prefix.t * 'a) list

(** [deepest_match keep ip t] is the binding with the longest prefix
    containing [ip] whose value satisfies [keep]: the last element of
    [List.filter] over {!all_matches}, found without building that list. *)
val deepest_match : ('a -> bool) -> Ipv4.t -> 'a t -> (Prefix.t * 'a) option

(** Bindings whose prefix is contained within [p] (including [p] itself). *)
val within : Prefix.t -> 'a t -> (Prefix.t * 'a) list

val fold : (Prefix.t -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
val iter : (Prefix.t -> 'a -> unit) -> 'a t -> unit
val cardinal : 'a t -> int

(** Bindings in increasing prefix order. *)
val to_list : 'a t -> (Prefix.t * 'a) list

val of_list : (Prefix.t * 'a) list -> 'a t

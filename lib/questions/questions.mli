(** The question engine: specialized, narrowly-scoped analyses (Lessons 4-5).

    Deep-configuration questions (undefined references, duplicate IPs, BGP
    compatibility, property consistency) only need the VI model; forwarding
    questions need a computed data plane. Every question returns a printable
    tabular {!answer} so results read uniformly. *)

type answer = {
  a_title : string;
  a_header : string list;
  a_rows : string list list;
}

val answer_to_string : answer -> string
val print_answer : answer -> unit

(** {2 Configuration questions (no data plane needed)} *)

(** Parse diagnostics collected during stage 1. *)
val init_issues : (Vi.t * Diag.t list) list -> answer

(** Structured pipeline diagnostics as a uniform table. *)
val diagnostics : Diag.t list -> answer

(** Structures referenced but never defined. *)
val undefined_references : Vi.t list -> answer

(** Structures defined but never referenced. *)
val unused_structures : Vi.t list -> answer

(** Interface addresses assigned to more than one interface. *)
val duplicate_ips : Vi.t list -> answer

(** Configured BGP neighbors whose two ends disagree (AS numbers, missing
    reverse configuration). Purely configuration-based. *)
val bgp_session_compatibility : Vi.t list -> answer

(** Per-node management-plane settings with majority/outlier analysis:
    NTP servers, DNS servers, logging hosts, SNMP communities. *)
val property_consistency : Vi.t list -> answer

(** A lint {!Lint.report} as a uniform table (code, pass, severity,
    location, message). *)
val lint : Lint.report -> answer

(** Engine-counter summary of an incremental update (ISSUE 4): what changed,
    what was re-simulated, what was reused, and how far the route-delta
    worklist's frontier reached. *)
val incremental_update :
  files_changed:int ->
  files_reparsed:int ->
  nodes_changed:string list ->
  components:int ->
  dirty_components:int ->
  nodes_simulated:int ->
  nodes_reused:int ->
  frontier_size:int ->
  nodes_converged_early:int ->
  forwarding_rebuilt:bool ->
  memo_invalidated:int ->
  answer

val interface_properties : Vi.t list -> answer
val node_properties : Vi.t list -> answer

(** {2 Data-plane questions} *)

(** Session establishment results from the simulation. *)
val bgp_session_status : Dataplane.t -> answer

(** Main-RIB routes, optionally filtered. *)
val routes : ?node:string -> ?protocol:string -> Dataplane.t -> answer

(** Run a packet through a named ACL (testFilters). *)
val test_filters : Vi.t -> acl:string -> Packet.t -> answer

(** Symbolically search a named ACL for packets with a given disposition
    (searchFilters): returns an example packet per matching line. *)
val search_filters :
  Pktset.t -> Vi.t -> acl:string -> action:Vi.action -> answer

(** Run a candidate route through a named routing policy (testRoutePolicies):
    verdict plus the attribute changes it makes. *)
val test_route_policy : Vi.t -> policy:string -> Route.t -> answer

(** Concrete traceroute. *)
val traceroute :
  configs:(string -> Vi.t option) ->
  dp:Dataplane.t ->
  start:string ->
  ?ingress:string ->
  Packet.t ->
  answer

(** Symbolic reachability: can packets from [src] reach [dst_ip]? Reports
    the verdict with negative/positive examples (§4.4.3). *)
val reachability :
  Fquery.t ->
  src:Fquery.start ->
  dst_ip:Prefix.t ->
  ?hdr:Bdd.t ->
  unit ->
  answer

(** Multipath consistency over default-scoped start locations. [domains]
    shards the backward passes over worker domains ({!Fpar}); the answer is
    identical at any value. *)
val multipath_consistency :
  ?pool:Par.Pool.t -> ?domains:int -> ?auto:bool -> Fquery.t -> answer

(** All-pairs reachability: one row per (source location, destination node)
    pair with delivered flows, with an example flow each. [domains] fans the
    per-group forward passes across worker domains. Each distinct
    (destination, example) pair is rendered once; rows that carry it share
    the same tail cells. *)
val all_pairs_reachability :
  ?pool:Par.Pool.t -> ?domains:int -> ?auto:bool -> Fquery.t -> answer

(** Forwarding loops. *)
val detect_loops : Fquery.t -> answer

(** Flows delivered in exactly one of two snapshots (differential
    reachability between a base and a candidate change). *)
val differential_reachability :
  Fquery.t -> Fquery.t -> srcs:Fquery.start list -> answer

(** Per-property failure-verification table from a {!Failures.report}: the
    verdict, the minimal failing scenario, and a counterexample packet from
    the residual reachability set for every failing property. *)
val failure_verification : Failures.report -> answer

(** Sweep-level counters of a {!Failures.report}: scenarios enumerated vs.
    pruned vs. simulated, pruning state, and verdict totals. *)
val failure_summary : Failures.report -> answer

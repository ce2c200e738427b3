(** Strongly connected components (Tarjan), used by forwarding-loop
    detection. *)

(** [compute ~n adj] returns the component id of each vertex; ids are in
    reverse topological order of the condensation. *)
val compute : n:int -> int list array -> int array

(** Vertices grouped by component. *)
val groups : int array -> int list array

(** [first_cycle comp ~out ~target start] is a cycle through [start] inside
    its component [comp.(start)], as the [(source vertex, edge)] pairs from
    [start] back to it: the first one a depth-first search trying [out v] in
    list order meets. [target e] is the vertex edge [e] enters. Apply it to
    [comp], [out] and [target] once and search every start with the result:
    the searches share their scratch space.

    Each vertex is entered once, so the search is linear in the component's
    size. It returns the same cycle as the exhaustive search over simple
    paths: a vertex whose earlier visit failed reaches [start] only through
    an ancestor of that visit, and the branch now being searched shares that
    ancestor, so visiting it again would fail again. *)
val first_cycle :
  int array -> out:(int -> 'e list) -> target:('e -> int) -> int -> (int * 'e) list option

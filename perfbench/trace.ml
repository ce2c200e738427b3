(* Spans around the benchmark's calls into each layer. Spans are kept in
   memory while a run measures and written out once when it ends. A span
   opened while another is open is its child; every span of one request (a
   cold iteration, an edit, a reader query) carries the request's root id.
   Spans are opened from one thread only. With tracing off, [span] only
   calls its function. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  root : int;
  name : string;
  start : float;
  stop : float;
  major_collections : int;
  allocated_words : float;
}

let enabled = ref false
let next_id = ref 0
let finished : span list ref = ref []

(* open spans, innermost first, as (id, root) *)
let stack : (int * int) list ref = ref []

let reset () = finished := []

(* Finished spans in the order they were opened. *)
let spans () = List.sort (fun a b -> compare a.id b.id) !finished

let allocated (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let span name f =
  if not !enabled then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent, root = match !stack with (p, r) :: _ -> (p, r) | [] -> (0, id) in
    stack := (id, root) :: !stack;
    let gc0 = Gc.quick_stat () in
    let start = Util.now () in
    Fun.protect f ~finally:(fun () ->
        let stop = Util.now () in
        let gc1 = Gc.quick_stat () in
        stack := List.tl !stack;
        finished :=
          { id; parent; root; name; start; stop;
            major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
            allocated_words = allocated gc1 -. allocated gc0 }
          :: !finished)
  end

(* Adopt spans recorded in another process (a cold iteration's child),
   renumbered after the spans already here. *)
let absorb spans =
  let base = !next_id in
  let shift i = if i = 0 then 0 else i + base in
  List.iter
    (fun s ->
      next_id := max !next_id (shift s.id);
      finished :=
        { s with id = shift s.id; parent = shift s.parent; root = shift s.root } :: !finished)
    spans

let duration s = s.stop -. s.start

(* [(name, (total, self))] over [spans]: self time is a span's duration
   minus the durations of its direct children. *)
let totals spans =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    spans;
  let acc = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id) in
      let t, sf = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt acc s.name) in
      Hashtbl.replace acc s.name (t +. duration s, sf +. self))
    spans;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []

(* Problems with the span forest: a child outside its parent's interval, a
   dangling parent, or a child filed under another request's root. *)
let nesting_errors spans =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  List.filter_map
    (fun s ->
      if s.parent = 0 then
        if s.root = s.id then None else Some (Printf.sprintf "root %s has root %d" s.name s.root)
      else
        match Hashtbl.find_opt by_id s.parent with
        | None -> Some (Printf.sprintf "%s: missing parent %d" s.name s.parent)
        | Some p ->
          if s.start < p.start || s.stop > p.stop then
            Some (Printf.sprintf "%s escapes its parent %s" s.name p.name)
          else if s.root <> p.root then
            Some (Printf.sprintf "%s is filed under another request" s.name)
          else None)
    spans

let write_jsonl path spans =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"root\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f,\"major_collections\":%d,\"allocated_words\":%.0f}\n"
            s.id s.parent s.root s.name s.start s.stop s.major_collections s.allocated_words)
        spans)

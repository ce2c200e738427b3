let compute ~n adj =
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let stack = ref [] in
  let counter = ref 0 in
  let comp_count = ref 0 in
  (* Iterative Tarjan to avoid stack overflow on long paths. *)
  let strongconnect v =
    let call_stack = ref [ (v, ref adj.(v)) ] in
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    while !call_stack <> [] do
      match !call_stack with
      | [] -> ()
      | (u, rest) :: tail -> (
        match !rest with
        | w :: ws ->
          rest := ws;
          if index.(w) < 0 then begin
            index.(w) <- !counter;
            lowlink.(w) <- !counter;
            incr counter;
            stack := w :: !stack;
            on_stack.(w) <- true;
            call_stack := (w, ref adj.(w)) :: !call_stack
          end
          else if on_stack.(w) then lowlink.(u) <- min lowlink.(u) index.(w)
        | [] ->
          call_stack := tail;
          (match tail with
           | (p, _) :: _ -> lowlink.(p) <- min lowlink.(p) lowlink.(u)
           | [] -> ());
          if lowlink.(u) = index.(u) then begin
            let rec pop () =
              match !stack with
              | w :: rest ->
                stack := rest;
                on_stack.(w) <- false;
                comp.(w) <- !comp_count;
                if w <> u then pop ()
              | [] -> ()
            in
            pop ();
            incr comp_count
          end)
    done
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  comp

let groups comp =
  let k = Array.fold_left (fun m c -> max m (c + 1)) 0 comp in
  let g = Array.make k [] in
  for v = Array.length comp - 1 downto 0 do
    g.(comp.(v)) <- v :: g.(comp.(v))
  done;
  g

(* The search is iterative, like [compute]: the frames hold each vertex's
   untried out-edges, and [path] the edges taken down to the top frame. The
   visited marks live in one array for every search and are cleared after
   each, so a search costs its component's size, not the graph's. *)
let first_cycle comp ~out ~target =
  let visited = Array.make (Array.length comp) false in
  fun start ->
    let marked = ref [ start ] in
    visited.(start) <- true;
    let rec search frames path =
      match frames with
      | [] -> None
      | (_, []) :: below ->
        search below
          (match path with
           | [] -> []
           | _ :: up -> up)
      | (v, e :: es) :: below ->
        let frames = (v, es) :: below in
        let w = target e in
        if comp.(w) <> comp.(start) then search frames path
        else if w = start then Some (List.rev ((v, e) :: path))
        else if visited.(w) then search frames path
        else begin
          visited.(w) <- true;
          marked := w :: !marked;
          search ((w, out w) :: frames) ((v, e) :: path)
        end
    in
    let cycle = search [ (start, out start) ] [] in
    List.iter (fun v -> visited.(v) <- false) !marked;
    cycle

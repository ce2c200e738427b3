type 'a t =
  | Leaf
  | Node of { value : 'a option; left : 'a t; right : 'a t }

let empty = Leaf

let is_empty = function
  | Leaf -> true
  | Node _ -> false

let node value left right =
  match (value, left, right) with
  | None, Leaf, Leaf -> Leaf
  | _ -> Node { value; left; right }

(* Paths follow address bits from the most significant; depth equals prefix
   length. *)

let rec update_at ip len depth f t =
  match t with
  | Leaf ->
    if depth = len then node (f None) Leaf Leaf
    else if Ipv4.bit ip depth then node None Leaf (update_at ip len (depth + 1) f Leaf)
    else node None (update_at ip len (depth + 1) f Leaf) Leaf
  | Node { value; left; right } ->
    if depth = len then node (f value) left right
    else if Ipv4.bit ip depth then node value left (update_at ip len (depth + 1) f right)
    else node value (update_at ip len (depth + 1) f left) right

let update p f t = update_at (Prefix.network p) (Prefix.length p) 0 f t
let add p v t = update p (fun _ -> Some v) t
let remove p t = update p (fun _ -> None) t

let find p t =
  let ip = Prefix.network p and len = Prefix.length p in
  let rec go depth t =
    match t with
    | Leaf -> None
    | Node { value; left; right } ->
      if depth = len then value
      else go (depth + 1) (if Ipv4.bit ip depth then right else left)
  in
  go 0 t

let all_matches ip t =
  let rec go depth t acc =
    match t with
    | Leaf -> List.rev acc
    | Node { value; left; right } ->
      let acc =
        match value with
        | Some v -> (Prefix.make ip depth, v) :: acc
        | None -> acc
      in
      if depth = 32 then List.rev acc
      else go (depth + 1) (if Ipv4.bit ip depth then right else left) acc
  in
  go 0 t []

(* The walk carries the deepest kept node and its depth instead of building
   a binding per match, and closes over nothing, so a lookup allocates only
   its result. *)
let deepest_result ip found at =
  match found with
  | Node { value = Some v; _ } -> Some (Prefix.make ip at, v)
  | Node { value = None; _ } | Leaf -> None

let rec deepest_at keep ip depth t found at =
  match t with
  | Leaf -> deepest_result ip found at
  | Node { value; left; right } ->
    let hit =
      match value with
      | Some v -> keep v
      | None -> false
    in
    let found = if hit then t else found and at = if hit then depth else at in
    if depth = 32 then deepest_result ip found at
    else deepest_at keep ip (depth + 1) (if Ipv4.bit ip depth then right else left) found at

let deepest_match keep ip t = deepest_at keep ip 0 t Leaf 0

let longest_match ip t = deepest_match (fun _ -> true) ip t

let rec fold_at ip depth f t acc =
  match t with
  | Leaf -> acc
  | Node { value; left; right } ->
    let acc =
      match value with
      | Some v -> f (Prefix.make ip depth) v acc
      | None -> acc
    in
    let acc = fold_at ip (depth + 1) f left acc in
    if depth = 32 then acc
    else fold_at (ip lor (1 lsl (31 - depth))) (depth + 1) f right acc

let fold f t acc = fold_at 0 0 f t acc

let within p t =
  let ip = Prefix.network p and len = Prefix.length p in
  let rec descend depth t =
    match t with
    | Leaf -> []
    | Node { left; right; _ } ->
      if depth = len then List.rev (fold_at ip depth (fun p v acc -> (p, v) :: acc) t [])
      else descend (depth + 1) (if Ipv4.bit ip depth then right else left)
  in
  descend 0 t

let iter f t = fold (fun p v () -> f p v) t ()
let cardinal t = fold (fun _ _ n -> n + 1) t 0
let to_list t = List.rev (fold (fun p v acc -> (p, v) :: acc) t [])
let of_list l = List.fold_left (fun t (p, v) -> add p v t) empty l

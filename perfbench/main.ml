(* The repository benchmark.

     main.exe --workload ha_fabric --seed 1 --seconds 20 --trace 0
     main.exe record [--scale tiny]    (print the answer digests for Digests)

   Prints one line per metric (name, value, unit, sample count), the first
   few answer mismatches, and, as the last line, the run's JSON result.
   [--scale tiny] runs the same workloads on small networks. *)

open Perfbench

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result (o : Workloads.outcome) =
  List.iter
    (fun (name, v, unit, n) -> Printf.printf "%-32s %16.6f %-6s samples=%d\n" name v unit n)
    o.metrics;
  List.iter (fun p -> Printf.printf "MISMATCH %s\n" p) o.problems;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (o.failed = 0 && o.attempted > 0)
    o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit, _) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) unit)
          o.metrics))

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--scale full|tiny]\n\
    \       main.exe record [--scale full|tiny]";
  exit 2

let () =
  let record, args =
    match List.tl (Array.to_list Sys.argv) with
    | "record" :: rest -> (true, rest)
    | args -> (false, args)
  in
  let rec opts acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let o = opts [] args in
  let opt k conv = match Option.bind (List.assoc_opt k o) conv with Some v -> v | None -> usage () in
  let scale =
    match List.assoc_opt "scale" o with
    | None | Some "full" -> Workloads.Full
    | Some "tiny" -> Workloads.Tiny
    | Some _ -> usage ()
  in
  if record then
    List.iter
      (fun (w : Workloads.batch) ->
        for v = 0 to Util.variants - 1 do
          Printf.printf "    ((%S, %S, %d), %S);\n%!" w.name (Workloads.scale_name scale) v
            (Workloads.reference_digest scale w v)
        done)
      Workloads.batches
  else begin
    let workload = opt "workload" Option.some in
    if not (List.mem workload Workloads.all) then usage ();
    let out_dir = ".perfbench-out" in
    if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
    let cfg =
      { Workloads.seed = opt "seed" int_of_string_opt;
        seconds = opt "seconds" float_of_string_opt;
        trace = opt "trace" int_of_string_opt = 1;
        scale;
        corrupt = false;
        (* two worker domains: the same pool on every machine with two or
           more cores *)
        domains = min 2 (Domain.recommended_domain_count ());
        out_dir }
    in
    print_result (Workloads.run cfg workload)
  end

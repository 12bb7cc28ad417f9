(* Deep packet inspection: the paper's motivating workload (§I).

   A Snort-like signature ruleset is compiled at several merging
   factors and matched against synthetic HTTP-ish traffic; the example
   reports the matches found and how the MFSA compares with running
   one iNFAnt engine per signature — the paper's Fig. 9 experiment in
   miniature.

   Run with: dune exec examples/packet_inspection.exe *)

module Pipeline = Mfsa_core.Pipeline
module Report = Mfsa_core.Report
module Mfsa = Mfsa_model.Mfsa
module Merge = Mfsa_model.Merge
module Imfant = Mfsa_engine.Imfant
module Infant = Mfsa_paper.Infant
module Stream_gen = Mfsa_datasets.Stream_gen

let signatures =
  [|
    (* Shared request-line prefixes make these highly mergeable. *)
    "GET /cgi-bin/php\\?";
    "GET /cgi-bin/test-cgi";
    "GET /admin/config\\.php";
    "GET /admin/login\\.php";
    "POST /cgi-bin/formmail";
    "POST /admin/upload";
    "User-Agent: sqlmap";
    "User-Agent: nikto";
    "\\.\\./\\.\\./etc/passwd";
    "cmd\\.exe\\?/c\\+dir";
    "union select [a-z0-9_,]+ from";
    "<script>alert\\(";
  |]

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let () =
  (* Synthetic traffic with attack fragments planted in it. *)
  let traffic = Stream_gen.generate ~seed:99 ~density:0.08 ~size:262_144 signatures in
  Printf.printf "Inspecting %d KiB of synthetic traffic against %d signatures.\n\n"
    (String.length traffic / 1024)
    (Array.length signatures);

  let fsas = Result.get_ok (Pipeline.build_fsas signatures) in

  (* Baseline: one iNFAnt engine per signature (the M = 1 column). *)
  let infants = Array.map Infant.compile fsas in
  let baseline_counts, baseline_time =
    time (fun () -> Array.map (fun e -> Infant.count e traffic) infants)
  in

  (* MFSA: one merged automaton, one pass (the M = all column). *)
  let z = Merge.merge fsas in
  let engine = Imfant.compile z in
  let mfsa_counts, mfsa_time =
    time (fun () -> Imfant.count_per_fsa engine traffic)
  in

  Printf.printf "%-28s %10s %10s\n" "signature" "iNFAnt" "iMFAnt";
  Printf.printf "%s\n" (String.make 50 '-');
  Array.iteri
    (fun i pattern ->
      Printf.printf "%-28s %10d %10d%s\n"
        (if String.length pattern > 28 then String.sub pattern 0 28 else pattern)
        baseline_counts.(i) mfsa_counts.(i)
        (if baseline_counts.(i) <> mfsa_counts.(i) then "  <-- MISMATCH!" else ""))
    signatures;
  assert (baseline_counts = mfsa_counts);

  let before = Report.fsa_totals fsas in
  Printf.printf "\n%d separate FSAs: %d states | merged MFSA: %d states\n"
    (Array.length signatures) before.Report.states z.Mfsa.n_states;
  Printf.printf "%d signatures x %d KiB in one pass: %.2f ms (separate engines: %.2f ms, %.2fx)\n"
    (Array.length signatures)
    (String.length traffic / 1024)
    (mfsa_time *. 1e3) (baseline_time *. 1e3)
    (baseline_time /. mfsa_time);

  (* Active-set telemetry, as in the paper's Table II. *)
  let _, stats = Imfant.run_with_stats engine traffic in
  Printf.printf "Average active signatures per byte: %.2f (max %d)\n"
    stats.Imfant.avg_active stats.Imfant.max_active

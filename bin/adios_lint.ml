(* adios-lint CLI: walk lib/ and bin/, print findings, gate on them.

     dune build @check && dune exec bin/adios_lint.exe
     dune exec bin/adios_lint.exe -- --root DIR --build-dir DIR/_build/default
     dune exec bin/adios_lint.exe -- --format github   # CI annotations

   Every rule reads the typedtrees in the .cmt artifacts under
   --build-dir (default ROOT/_build/default); run `dune build @check`
   first or every file reports cmt-drift. Exit status 0 when clean, 1
   when any finding (or a bad root), 2 on a usage error. The plain
   output format is one finding per line: file:line: [rule] message;
   --format github emits workflow-command annotations that GitHub
   renders inline on the PR diff. See README.md ("Static analysis")
   for the rule catalogue and the suppression syntax. *)

module Lint = Adios_analysis.Lint

let usage () =
  prerr_endline
    "usage: adios_lint [--root DIR] [--rules] [--build-dir DIR]\n\
    \                  [--format plain|github]";
  exit 2

(* GitHub workflow commands terminate on newline and treat % as an
   escape introducer, so the message body needs its own escaping. *)
let github_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '%' -> Buffer.add_string buf "%25"
      | '\n' -> Buffer.add_string buf "%0A"
      | '\r' -> Buffer.add_string buf "%0D"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let print_github (f : Lint.finding) =
  Printf.printf "::error file=%s,line=%d,title=%s::%s\n" f.Lint.file
    f.Lint.line f.Lint.rule (github_escape f.Lint.msg)

let () =
  let root = ref "." in
  let list_rules = ref false in
  let build_dir = ref None in
  let format = ref `Plain in
  let rec parse = function
    | [] -> ()
    | "--root" :: dir :: rest ->
      root := dir;
      parse rest
    | [ "--root" ] -> usage ()
    | "--rules" :: rest ->
      list_rules := true;
      parse rest
    | "--build-dir" :: dir :: rest ->
      build_dir := Some dir;
      parse rest
    | [ "--build-dir" ] -> usage ()
    | "--format" :: "plain" :: rest ->
      format := `Plain;
      parse rest
    | "--format" :: "github" :: rest ->
      format := `Github;
      parse rest
    | "--format" :: _ -> usage ()
    | ("-h" | "--help") :: _ -> usage ()
    | dir :: rest when not (String.starts_with ~prefix:"-" dir) ->
      root := dir;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !list_rules then begin
    List.iter print_endline Lint.rule_names;
    exit 0
  end;
  if not (Sys.file_exists (Filename.concat !root "lib")) then begin
    Printf.eprintf "adios_lint: %s does not look like the repo root (no lib/)\n"
      !root;
    exit 1
  end;
  let files, findings = Lint.run ?build_dir:!build_dir ~root:!root () in
  List.iter
    (fun f ->
      match !format with
      | `Plain -> print_endline (Lint.to_string f)
      | `Github -> print_github f)
    findings;
  match findings with
  | [] ->
    Printf.printf "adios-lint: %d files checked, no findings\n" files;
    exit 0
  | _ :: _ ->
    Printf.eprintf "adios-lint: %d finding(s) in %d files checked\n"
      (List.length findings) files;
    exit 1

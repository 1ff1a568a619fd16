(* Typedtree access for the linter: find and load the [.cmt] artifacts
   dune leaves under [_build], and map them back to the repo-relative
   source paths the rest of the linter speaks.

   Layout facts this relies on (stable across dune versions we use):
   - a library module's cmt is [<dir>/.<lib>.objs/byte/<Lib>__<Mod>.cmt];
   - an executable module's cmt is [bin/.<name>.eobjs/byte/dune__exe__<Mod>.cmt];
   - [cmt_sourcefile] is the workspace-relative source path
     ("lib/engine/sim.ml"), which is exactly the key the linter uses;
   - [cmt_source_digest] is the MD5 of the source the artifact was
     compiled from, which gives a precise staleness check.

   dune's default build produces library cmts but only materialises
   executable cmts under the [@check] alias, so the documented
   incantation before a typed run is [dune build @check].

   Everything degrades per-file: a missing or unreadable cmt is a
   reportable status, never an exception, so one broken artifact cannot
   take down the whole lint run. *)

type status =
  | Loaded of Typedtree.structure
  | No_build_dir  (** the build directory itself is absent *)
  | No_cmt  (** no implementation cmt maps to this source file *)
  | Stale  (** a cmt exists but was compiled from different source *)
  | Unreadable of string  (** a cmt exists but cannot be parsed *)

type info = {
  cmt_path : string;
  src : string;  (** workspace-relative source path *)
  modname : string;  (** mangled unit name, e.g. [Adios_rdma__Verbs] *)
  digest : string option;  (** MD5 of the compiled source, if recorded *)
  structure : Typedtree.structure;
}

type index = {
  build_dir : string;
  present : bool;
  by_source : (string, info) Hashtbl.t;  (** repo-relative source path *)
  by_modname : (string, info) Hashtbl.t;
}

let read_unit cmt_path =
  match Cmt_format.read_cmt cmt_path with
  | exception _ -> None
  | cmt -> (
    match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
    | Cmt_format.Implementation str, Some src
      when Filename.check_suffix src ".ml" ->
      Some
        ( src,
          { cmt_path;
            src;
            modname = cmt.Cmt_format.cmt_modname;
            digest = cmt.Cmt_format.cmt_source_digest;
            structure = str;
          } )
    | _ -> None)

let rec walk_cmts dir acc =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | names ->
    Array.sort String.compare names;
    Array.fold_left
      (fun acc name ->
        let path = Filename.concat dir name in
        if Sys.is_directory path then walk_cmts path acc
        else if Filename.check_suffix name ".cmt" then path :: acc
        else acc)
      acc names

let load_index ~build_dir =
  let present = Sys.file_exists build_dir && Sys.is_directory build_dir in
  let by_source = Hashtbl.create 64 and by_modname = Hashtbl.create 64 in
  if present then
    List.iter
      (fun cmt_path ->
        match read_unit cmt_path with
        | None -> ()
        | Some (src, info) ->
          (* first wins: the byte directory is the only one dune writes
             cmts to, so duplicates only arise from stale clones *)
          if not (Hashtbl.mem by_source src) then
            Hashtbl.replace by_source src info;
          if not (Hashtbl.mem by_modname info.modname) then
            Hashtbl.replace by_modname info.modname info)
      (List.sort String.compare (walk_cmts build_dir []));
  { build_dir; present; by_source; by_modname }

let lookup index ~path ~source =
  if not index.present then No_build_dir
  else
    match Hashtbl.find_opt index.by_source path with
    | None -> No_cmt
    | Some info -> (
      match info.digest with
      | Some d when not (String.equal d (Digest.string source)) -> Stale
      | _ -> Loaded info.structure)

let find_unit index ~modname = Hashtbl.find_opt index.by_modname modname

let cmt_dir index ~path =
  match Hashtbl.find_opt index.by_source path with
  | Some info -> Some (Filename.dirname info.cmt_path)
  | None -> None

(* --- in-process typing, for test fixtures --------------------------------

   Lint tests hand the rules small self-contained sources (with local
   stub modules standing in for [Sim]/[Clock]/[Event]), so no cmt and
   no project cmi is needed: initialise the compiler's load path once,
   with the standard library and [unix] (whose [gettimeofday] the
   [determinism] rule names), and run the type checker directly. This
   is the linter's only parser. *)

let typing_initialised = ref false

let type_source ~path ~source =
  if not !typing_initialised then begin
    Clflags.include_dirs := "+unix" :: !Clflags.include_dirs;
    Compmisc.init_path ();
    typing_initialised := true
  end;
  let env = Compmisc.initial_env () in
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  match
    let past = Parse.implementation lexbuf in
    Typemod.type_structure env past
  with
  | str, _, _, _, _ -> Ok str
  | exception exn -> Error (Printexc.to_string exn)

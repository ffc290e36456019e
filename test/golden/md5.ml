(* Print "DIGEST  FILE" (md5sum's layout, base names only) for each file
   named on the command line. *)
let () =
  for i = 1 to Array.length Sys.argv - 1 do
    let file = Sys.argv.(i) in
    Printf.printf "%s  %s\n"
      (Digest.to_hex (Digest.file file))
      (Filename.basename file)
  done

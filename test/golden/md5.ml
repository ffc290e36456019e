(* Print "DIGEST  FILE" (md5sum's layout, base names only) for each file
   named on the command line.  A directory stands for the files in it,
   in name order. *)
let print file =
  Printf.printf "%s  %s\n"
    (Digest.to_hex (Digest.file file))
    (Filename.basename file)

let () =
  for i = 1 to Array.length Sys.argv - 1 do
    let path = Sys.argv.(i) in
    if Sys.is_directory path then
      Array.iter
        (fun name -> print (Filename.concat path name))
        (let names = Sys.readdir path in
         Array.sort compare names;
         names)
    else print path
  done

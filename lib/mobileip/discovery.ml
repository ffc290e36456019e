let publish_care_of mh ~dns_server ~name () =
  match Mobile_host.care_of_address mh with
  | None -> false
  | Some care_of ->
      Dns_ext.Client.publish_temporary (Mobile_host.node mh) ~server:dns_server
        ~src:care_of ~name ~care_of ~ttl:120 ();
      true

let discover_via_dns ch ~dns_server ~name ?(on_result = fun ~learned:_ -> ())
    () =
  Dns_ext.Client.resolve (Correspondent.node ch) ~server:dns_server ~name
    (fun answer ->
      match (answer.Dns_ext.Client.permanent, answer.Dns_ext.Client.temporary)
      with
      | Some home, Some (care_of, ttl) ->
          Correspondent.learn_binding ch ~home ~care_of ~lifetime:ttl;
          on_result ~learned:true
      | _ -> on_result ~learned:false)

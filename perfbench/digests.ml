(* Answer digests ({!Util.digest_answers}) of the batch workloads for every
   input variant, recorded from a serial session with [main.exe record]. *)

let recorded =
  [
    (("ha_fabric", "tiny", 0), "23e188ea4c24f0f2d9b4e73119f613bc");
    (("ha_fabric", "tiny", 1), "23e188ea4c24f0f2d9b4e73119f613bc");
    (("ha_fabric", "tiny", 2), "2826056776efb73dca0adc316aeb40ee");
    (("ha_fabric", "tiny", 3), "c262816e5ecab8397bf195a7826de06c");
    (("ha_fabric", "tiny", 4), "23e188ea4c24f0f2d9b4e73119f613bc");
    (("ha_fabric", "tiny", 5), "23e188ea4c24f0f2d9b4e73119f613bc");
    (("ha_fabric", "tiny", 6), "23e188ea4c24f0f2d9b4e73119f613bc");
    (("ha_fabric", "tiny", 7), "0668b0b18f2f6b3a30a92f55e6facfb2");
    (("bgp_fabric", "tiny", 0), "c855f6f1a8cb58263e595f2fd15f41f8");
    (("bgp_fabric", "tiny", 1), "c855f6f1a8cb58263e595f2fd15f41f8");
    (("bgp_fabric", "tiny", 2), "060463dfa2946568ac6efd9d7b657c49");
    (("bgp_fabric", "tiny", 3), "da57b76656c8abcc7fdd12f26a422e9c");
    (("bgp_fabric", "tiny", 4), "c855f6f1a8cb58263e595f2fd15f41f8");
    (("bgp_fabric", "tiny", 5), "c855f6f1a8cb58263e595f2fd15f41f8");
    (("bgp_fabric", "tiny", 6), "c855f6f1a8cb58263e595f2fd15f41f8");
    (("bgp_fabric", "tiny", 7), "c855f6f1a8cb58263e595f2fd15f41f8");
    (("dc_failures", "tiny", 0), "6b7fc02b8bfde83c6b318010fe3164fd");
    (("dc_failures", "tiny", 1), "6b7fc02b8bfde83c6b318010fe3164fd");
    (("dc_failures", "tiny", 2), "0967a79760e10cc999da828b9e6d6111");
    (("dc_failures", "tiny", 3), "ae66611e34fefd7236991fba84081ef8");
    (("dc_failures", "tiny", 4), "6b7fc02b8bfde83c6b318010fe3164fd");
    (("dc_failures", "tiny", 5), "6b7fc02b8bfde83c6b318010fe3164fd");
    (("dc_failures", "tiny", 6), "6b7fc02b8bfde83c6b318010fe3164fd");
    (("dc_failures", "tiny", 7), "6b7fc02b8bfde83c6b318010fe3164fd");
    (("ha_fabric", "full", 0), "5ec0d18e7bc635ee133b75528ef5e709");
    (("ha_fabric", "full", 1), "5ec0d18e7bc635ee133b75528ef5e709");
    (("ha_fabric", "full", 2), "9d4cf71f5c63fa57aa85707487fe0eb0");
    (("ha_fabric", "full", 3), "dbf04d77d056e828e5a3292ac8832a05");
    (("ha_fabric", "full", 4), "5ec0d18e7bc635ee133b75528ef5e709");
    (("ha_fabric", "full", 5), "5ec0d18e7bc635ee133b75528ef5e709");
    (("ha_fabric", "full", 6), "5ec0d18e7bc635ee133b75528ef5e709");
    (("ha_fabric", "full", 7), "eb158e11fb431fbeebd00fcf0682aae1");
    (("bgp_fabric", "full", 0), "61eb757a3cb13571802979f66975c98b");
    (("bgp_fabric", "full", 1), "61eb757a3cb13571802979f66975c98b");
    (("bgp_fabric", "full", 2), "1abf79fa25c82ae842acbd3e4c71e82b");
    (("bgp_fabric", "full", 3), "1a727c3db3c991e5ca669ffc3b8c2061");
    (("bgp_fabric", "full", 4), "61eb757a3cb13571802979f66975c98b");
    (("bgp_fabric", "full", 5), "61eb757a3cb13571802979f66975c98b");
    (("bgp_fabric", "full", 6), "61eb757a3cb13571802979f66975c98b");
    (("bgp_fabric", "full", 7), "61eb757a3cb13571802979f66975c98b");
    (("dc_failures", "full", 0), "6b7fc02b8bfde83c6b318010fe3164fd");
    (("dc_failures", "full", 1), "6b7fc02b8bfde83c6b318010fe3164fd");
    (("dc_failures", "full", 2), "0967a79760e10cc999da828b9e6d6111");
    (("dc_failures", "full", 3), "ae66611e34fefd7236991fba84081ef8");
    (("dc_failures", "full", 4), "6b7fc02b8bfde83c6b318010fe3164fd");
    (("dc_failures", "full", 5), "6b7fc02b8bfde83c6b318010fe3164fd");
    (("dc_failures", "full", 6), "6b7fc02b8bfde83c6b318010fe3164fd");
    (("dc_failures", "full", 7), "6b7fc02b8bfde83c6b318010fe3164fd") ]

let find ~workload ~scale ~variant = List.assoc_opt (workload, scale, variant) recorded

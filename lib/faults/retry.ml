module Prng = Yasksite_util.Prng

type 'a outcome =
  | Success of 'a * int
  | Gave_up of { reason : string; attempts : int }

let run ~(policy : Policy.t) ~rng ~now ~sleep ?(deadline = infinity) f =
  let prev = ref Policy.base_backoff_s in
  let rec go attempt =
    if now () > deadline then
      Gave_up { reason = "pass budget exhausted"; attempts = attempt - 1 }
    else begin
      match f () with
      | Ok v -> Success (v, attempt)
      | Error reason ->
          if attempt >= policy.Policy.max_attempts then
            Gave_up { reason; attempts = attempt }
          else begin
            let d = Policy.backoff ~rng ~prev:!prev in
            prev := d;
            sleep d;
            go (attempt + 1)
          end
    end
  in
  go 1

"""Misbehaving evaluator for protocol fault-path tests.

Speaks the JSON-lines trainer/scorer protocol but injects one configurable
fault kind. Well-behaved replies score every delta as a fixed quadratic, so
loops that tolerate the fault still receive usable data on the other
requests.
"""
import argparse
import json
import sys
import time


def good_reply(request):
    rid = request.get("id")
    if request.get("role") == "trainer":
        return {
            "id": rid,
            "ok": True,
            "objectives": {"loss": 0.5, "metric": 0.5},
            "convergence_step": 10,
        }
    delta = request.get("delta") or [1.0]
    spread = sum((d - 1.0 / len(delta)) ** 2 for d in delta)
    return {
        "id": rid,
        "ok": True,
        "objectives": {"loss": 0.2 + spread, "metric": 0.5 - 0.5 * spread},
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--fault", required=True,
                        choices=("bad-id", "refuse", "sleep", "garbage", "die", "non-numeric"))
    parser.add_argument("--at", type=int, default=1,
                        help="0-based request index the fault fires on")
    parser.add_argument("--sleep", type=float, default=30.0)
    args = parser.parse_args()

    n = 0
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        request = json.loads(line)
        faulty = n == args.at
        n += 1
        if faulty and args.fault == "die":
            sys.exit(1)
        if faulty and args.fault == "sleep":
            time.sleep(args.sleep)
        if faulty and args.fault == "garbage":
            sys.stdout.write("this is not json\n")
        elif faulty and args.fault == "bad-id":
            reply = good_reply(request)
            reply["id"] = (reply["id"] or 0) + 1000
            sys.stdout.write(json.dumps(reply) + "\n")
        elif faulty and args.fault == "non-numeric":
            # A well-framed reply whose values are not numbers: a null
            # objective from a scorer, a string step from a trainer.
            reply = good_reply(request)
            if "convergence_step" in reply:
                reply["convergence_step"] = "abc"
            else:
                reply["objectives"]["loss"] = None
            sys.stdout.write(json.dumps(reply) + "\n")
        elif faulty and args.fault == "refuse":
            sys.stdout.write(json.dumps(
                {"id": request.get("id"), "ok": False, "error": "diverged"}) + "\n")
        else:
            sys.stdout.write(json.dumps(good_reply(request)) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Validate the benches' machine-readable output.

Checks the five BENCH_*.json records that bench_transport_throughput,
bench_rudp_goodput, bench_registry_scale, bench_swarm and bench_security
write to the working directory, each against its schema contract, and
every NARADA_JSON / NARADA_METRICS / NARADA_SNAPSHOT line in the smoke
logs.

    python3 tools/bench_check.py [--records DIR] [--logs DIR]

Defaults: records in the current directory, logs in smoke-results/*.txt.
Prints one line per problem and a summary; exits 1 on any problem or when
nothing was checked.
"""
import argparse
import glob
import json
import os
import sys


def check_transport(tr):
    # The one-reactor results plus the shard sweep: at least the 1-shard
    # baseline, shard counts strictly ascending from 1, positive throughput
    # and CPU utilization on every point.
    assert tr['bench'] == 'transport_throughput'
    assert tr['hw_cores'] >= 1
    payloads = [r['payload_bytes'] for r in tr['results']]
    assert payloads == [64, 1024], payloads
    for r in tr['results']:
        assert r['batched_dps'] > 0, r
        assert r['batched_cpu_cores'] > 0, r
    sweep = tr['shard_sweep']
    shards = [s['shards'] for s in sweep]
    assert shards and shards[0] == 1, shards
    assert shards == sorted(set(shards)), shards
    for s in sweep:
        assert s['dps'] > 0 and s['mean_dps'] > 0, s
        assert s['cpu_cores'] > 0, s
        assert s['scaling'] > 0, s


def check_rudp(rudp):
    # A results array with one goodput entry per loss point.
    assert rudp['bench'] == 'rudp_goodput'
    assert rudp['runs'] >= 1 and rudp['payload_bytes'] > 0
    losses = [r['loss'] for r in rudp['results']]
    assert losses == [0.0, 0.1, 0.3, 0.5], losses
    for r in rudp['results']:
        assert r['failures'] == 0, r
        assert r['goodput_kibps_mean'] > 0, r


def check_registry_scale(reg):
    # One entry per ad scale, selection quality in (0, 1], positive gather
    # latency.
    assert reg['bench'] == 'registry_scale'
    assert reg['ring_members'] >= 2 and reg['replication'] >= 2
    scales = [r['ads'] for r in reg['results']]
    assert scales == [10000, 100000, 1000000], scales
    for r in reg['results']:
        assert 0 < r['selection_quality'] <= 1, r
        assert 0 < r['selection_quality_one_shard_down'] <= 1, r
        assert r['gather_p99_us'] > 0, r


def check_scale(scale):
    # The full endpoint sweep up to 1M, a success floor per point, the
    # 256-byte per-endpoint ceiling, and a matching fixed-seed digest pair.
    assert scale['bench'] == 'swarm_scale'
    endpoints = [r['endpoints'] for r in scale['results']]
    assert endpoints == [10000, 100000, 1000000], endpoints
    for r in scale['results']:
        assert r['success_rate'] >= 0.9, r
        assert 0 < r['bytes_per_endpoint'] <= 256, r
        assert r['p99_ms'] > 0, r
    det = scale['determinism']
    assert det['match'] is True, det
    assert det['digest_a'] == det['digest_b'], det


def check_security(sec):
    # The secured-vs-plain curve with all five modes, positive throughput
    # everywhere, handshakes only on the cold points, and — when AES-NI is
    # available — the warm-cache floor the bench itself enforces
    # (seal_warm >= 0.5x).
    assert sec['bench'] == 'security_curve'
    assert sec['rsa_bits'] >= 512 and sec['payload_bytes'] > 0
    modes = [r['mode'] for r in sec['results']]
    assert modes == ['plain', 'sign_cold', 'sign_warm',
                     'seal_cold', 'seal_warm'], modes
    for r in sec['results']:
        assert r['dps'] > 0 and r['relative'] > 0, r
        if r['mode'].endswith('_cold'):
            assert r['handshakes'] >= 1, r
        else:
            assert r['handshakes'] == 0, r
    if sec['aesni']:
        assert sec['warm_seal_relative'] >= 0.5, sec


RECORDS = {
    'BENCH_transport.json': check_transport,
    'BENCH_rudp.json': check_rudp,
    'BENCH_registry_scale.json': check_registry_scale,
    'BENCH_scale.json': check_scale,
    'BENCH_security.json': check_security,
}

LINE_PREFIXES = ('NARADA_JSON ', 'NARADA_METRICS ', 'NARADA_SNAPSHOT ')


def main():
    parser = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    parser.add_argument('--records', default='.',
                        help='directory holding the BENCH_*.json records')
    parser.add_argument('--logs', default='smoke-results',
                        help='directory holding the benches\' *.txt output')
    args = parser.parse_args()

    checked = bad = 0
    for record, check in RECORDS.items():
        path = os.path.join(args.records, record)
        if not os.path.exists(path):
            bad += 1
            print(f'{record}: missing')
            continue
        checked += 1
        try:
            data = json.load(open(path))
        except json.JSONDecodeError as e:
            bad += 1
            print(f'{record}: invalid: {e}')
            continue
        try:
            check(data)
        except (AssertionError, KeyError) as e:
            bad += 1
            print(f'{record}: schema violation: {e!r}')

    for path in sorted(glob.glob(os.path.join(args.logs, '*.txt'))):
        for lineno, line in enumerate(open(path), 1):
            for prefix in LINE_PREFIXES:
                if line.startswith(prefix):
                    checked += 1
                    try:
                        json.loads(line[len(prefix):])
                    except json.JSONDecodeError as e:
                        bad += 1
                        print(f'{path}:{lineno}: invalid {prefix.strip()}: {e}')

    print(f'{checked} machine-readable lines validated, {bad} invalid')
    return 1 if bad or checked == 0 else 0


if __name__ == '__main__':
    sys.exit(main())

"""Command-line front end: train, eval, decode, saliency, oracle, stats.

Options resolve with the precedence explicit flag > config file > built-in
default.  Config files are flat `key = value` text with `#` comments.  Every
command exits 0 on success and nonzero after printing a single diagnostic
line starting with `error:` to stderr.
"""

from __future__ import annotations

import argparse
import html
import json
import sys
from pathlib import Path

import numpy as np

from .corpus import (
    build_instances,
    build_vocab,
    ingest_corpus,
    load_pretrained_embeddings,
    numbered_lines,
    stable_seed,
)
from .decoding import ORACLE_METRICS, beam_decode, oracle_in_beam
from .encoders import ENCODER_KINDS
from .errors import ConfigError, OrdernetError
from .metrics import aggregate
from .model import saliency
from .training import (
    _NOISE_ALIASES,
    Model,
    TrainConfig,
    checkpoint_load,
    chunk_decoders,
    decode_instances,
    evaluate,
    instance_chunks,
    parse_config_value,
    train,
)

_PATH_KEYS = ("train", "dev", "test", "input", "embeddings", "checkpoint", "out", "log")


def parse_config_file(path):
    """Flat `key = value` pairs; `#` starts a comment."""
    entries = {}
    for lineno, raw in numbered_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        entries[key] = value
    return entries


def resolve_config(args):
    """Merge defaults, config file entries, and explicit flags.

    Returns (TrainConfig, paths) where paths maps path-valued keys (corpus
    splits, embeddings, checkpoint, out, log) to strings or None.
    """
    settings = {}
    paths = {k: None for k in _PATH_KEYS}
    if getattr(args, "config", None):
        for key, value in parse_config_file(args.config).items():
            if key in paths:
                paths[key] = value
            else:
                settings[key] = parse_config_value(key, value)

    flag_map = {
        "seed": "seed", "encoder": "encoder", "beam": "beam_size", "epochs": "epochs",
        "batch": "batch_size", "noise": "noise_mode", "fixed_length": "fixed_length",
    }
    for flag, key in flag_map.items():
        value = getattr(args, flag, None)
        if value is not None:
            settings[key] = parse_config_value(key, value)
    for key in _PATH_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            paths[key] = value

    return TrainConfig(**settings), paths


def _config_echo(config):
    return "# config: " + json.dumps(config.to_dict(), sort_keys=True)


def _write_text(path, text):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text, encoding="utf-8")


def _load_split(path, label):
    if path is None:
        raise ConfigError(f"missing required corpus path: {label}")
    corpus = ingest_corpus(path)
    if corpus.stats.skipped:
        print(f"warning: skipped {corpus.stats.skipped} fragment(s) of fewer "
              f"than 2 sentences in {path}", file=sys.stderr)
    return corpus


def _eval_instances(model, documents, args):
    """Epoch-0 instances under the checkpoint's settings, which --seed and,
    where a command takes them, --noise and --fixed-length override."""
    cfg = model.config
    seed = cfg.seed if args.seed is None else args.seed
    noise_mode, fixed_length = cfg.noise_mode, cfg.fixed_length
    if getattr(args, "noise", None) is not None:
        noise_mode = parse_config_value("noise_mode", args.noise)
    if getattr(args, "fixed_length", None) is not None:
        fixed_length = parse_config_value("fixed_length", args.fixed_length)
    return build_instances(documents, model.vocab, seed, 0,
                           noise_mode=noise_mode, fixed_length=fixed_length)


# ----- commands -----

def cmd_train(args):
    config, paths = resolve_config(args)
    train_corpus = _load_split(paths["train"], "train")
    dev_corpus = _load_split(paths["dev"], "dev")

    vocab = build_vocab(train_corpus.documents, config.min_count)
    pretrained = None
    if paths["embeddings"]:
        rng = np.random.default_rng(stable_seed(config.seed, "oov"))
        pretrained, coverage = load_pretrained_embeddings(
            paths["embeddings"], vocab, config.embed_dim, rng)
        print(f"# embeddings: coverage={coverage:.4f}")

    model = Model.create(config, vocab, pretrained)
    checkpoint_path = paths["checkpoint"]
    if checkpoint_path is None and paths["out"]:
        checkpoint_path = str(Path(paths["out"]) / "model.npz")
    if checkpoint_path is None:
        raise ConfigError("train needs --checkpoint or --out to store the model")

    # Each log line reaches --log as it is printed, so a run that fails
    # keeps the lines of the epochs it finished.
    if paths["log"]:
        _write_text(paths["log"], "")

    def log(line):
        print(line, flush=True)
        if paths["log"]:
            with open(paths["log"], "a", encoding="utf-8") as fh:
                fh.write(line + "\n")

    log(_config_echo(config))
    log("# epoch\tloss\tpm\tlsr\tpmr\tseconds")
    train(model, train_corpus.documents, dev_corpus.documents,
          on_epoch=lambda record: log(record.line()), checkpoint_path=checkpoint_path)
    print(f"# checkpoint: {checkpoint_path}")
    return 0


def _load_checkpoint_for(args):
    if not getattr(args, "checkpoint", None):
        raise ConfigError("missing required flag: --checkpoint")
    model, opt_state, meta = checkpoint_load(args.checkpoint)
    # Structural flags must agree with the stored configuration.
    if getattr(args, "encoder", None) is not None and args.encoder != model.config.encoder:
        raise ConfigError(
            f"checkpoint was trained with encoder={model.config.encoder}, "
            f"--encoder {args.encoder} disagrees")
    return model, opt_state, meta


def cmd_eval(args):
    model, _, _ = _load_checkpoint_for(args)
    cfg = model.config
    corpus = _load_split(args.test or args.input, "test")
    instances = _eval_instances(model, corpus.documents, args)

    if args.self_test:
        report = aggregate([(inst.gold_positions, inst.gold_positions)
                            for inst in instances])
    elif args.beam is not None:
        report = evaluate(model, instances, "beam", args.beam, jobs=args.jobs)
    else:
        report = evaluate(model, instances, "greedy", jobs=args.jobs)

    echo = _config_echo(cfg)
    text = echo + "\n" + report.to_flat_text()
    print(text, end="")
    if args.out:
        _write_text(Path(args.out) / "report.txt", text)
        _write_text(Path(args.out) / "report.json",
                    json.dumps({"config": cfg.to_dict(), "metrics": report.to_dict()},
                               sort_keys=True, indent=2) + "\n")
    return 0


def cmd_decode(args):
    model, _, _ = _load_checkpoint_for(args)
    cfg = model.config
    corpus = _load_split(args.input or args.test, "input")
    instances = _eval_instances(model, corpus.documents, args)
    strategy = "beam" if args.beam is not None else "greedy"
    orders = decode_instances(model, instances, strategy, args.beam, jobs=args.jobs)

    lines = [_config_echo(cfg)]
    for inst, order in zip(instances, orders):
        positions = " ".join(str(p) for p in order.positions)
        lines.append(f"{inst.doc_id}\t{positions}\t{order.log_prob:.6f}"
                     f"\t{'stop' if order.stopped else 'full'}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        _write_text(Path(args.out) / "decoded.tsv", text)
    return 0


def _saliency_html(inst, steps, config):
    """Self-contained page: one block per decode step, shading each word by
    its attribution, normalized to the step's maximum."""
    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        "<title>Pointing saliency</title><style>",
        "body{font-family:sans-serif;margin:2em;}",
        ".sent{margin:0.2em 0;} .idx{color:#888;margin-right:0.6em;}",
        ".chosen{outline:2px solid #36c;} .word{padding:0 2px;border-radius:2px;}",
        "</style></head><body>",
        f"<h1>Pointing saliency: {html.escape(inst.doc_id)}</h1>",
        f"<p><code>{html.escape(json.dumps(config.to_dict(), sort_keys=True))}</code></p>",
    ]
    if inst.noise_position is not None:
        parts.append(f"<p>noise sentence at input position {inst.noise_position}</p>")
    for step in steps:
        slot = "stop" if step.choice == len(inst.words) else str(step.choice)
        parts.append(f"<h2>step {step.step}: slot {slot} "
                     f"(p={step.probability:.4f})</h2>")
        peak = max((s for row in step.scores for s in row), default=0.0)
        for j, (words, scores) in enumerate(zip(inst.words, step.scores)):
            marker = " chosen" if j == step.choice else ""
            rendered = " ".join(
                f"<span class='word' style='background:rgba(255,120,0,{(s / peak if peak else 0.0):.3f})'>"
                f"{html.escape(w)}</span>"
                for w, s in zip(words, scores))
            parts.append(f"<div class='sent{marker}'><span class='idx'>{j}</span>{rendered}</div>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


def cmd_saliency(args):
    model, _, _ = _load_checkpoint_for(args)
    cfg = model.config
    corpus = _load_split(args.input or args.test, "input")
    instances = _eval_instances(model, corpus.documents, args)
    if not 0 <= args.doc < len(instances):
        raise ConfigError(f"--doc {args.doc} outside 0..{len(instances) - 1}")
    inst = instances[args.doc]

    order = decode_instances(model, [inst], "greedy")[0]
    variable = inst.has_stop
    steps = []
    prefix = []
    chosen = list(order.positions) + ([inst.stop_index] if order.stopped and variable else [])
    for choice in chosen:
        steps.append(saliency(inst, prefix, model.params, choice, allow_stop=variable))
        if choice != inst.stop_index:
            prefix.append(choice)

    print(_config_echo(cfg))
    for step in steps:
        slot = "stop" if step.choice == inst.stop_index else str(step.choice)
        print(f"step {step.step}\tslot {slot}\tp={step.probability:.6f}")
    if args.out:
        _write_text(Path(args.out) / "saliency.html", _saliency_html(inst, steps, cfg))
        payload = {
            "config": cfg.to_dict(),
            "doc_id": inst.doc_id,
            "words": inst.words,
            "steps": [{"step": s.step, "choice": s.choice,
                       "probability": s.probability, "scores": s.scores}
                      for s in steps],
        }
        _write_text(Path(args.out) / "saliency.json",
                    json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_oracle(args):
    beams = args.beams.replace(",", " ").split()
    if not beams or not all(b.isdecimal() and int(b) >= 1 for b in beams):
        raise ConfigError(f"--beams expects positive integers separated by commas, "
                          f"got {args.beams!r}")
    model, _, _ = _load_checkpoint_for(args)
    cfg = model.config
    corpus = _load_split(args.test or args.input, "test")
    instances = _eval_instances(model, corpus.documents, args)

    # Each chunk is encoded once, and its decoders serve every beam width.
    sweeps = [(int(b), [], dict.fromkeys(ORACLE_METRICS, 0.0)) for b in beams]
    for chunk in instance_chunks(model, instances):
        decoders = chunk_decoders(model, chunk)
        for b, decoded_pairs, oracle_sums in sweeps:
            for inst, decoder in zip(chunk, decoders):
                best, beam = beam_decode(inst.inputs, model.params, b, inst.has_stop,
                                         decoder=decoder)
                decoded_pairs.append((list(best.positions), inst.gold_positions))
                for metric in oracle_sums:
                    _, score = oracle_in_beam(beam, inst.gold_positions, metric)
                    oracle_sums[metric] += score

    lines = [_config_echo(cfg),
             "# b\tpm_f\tlsr_f\tpmr\toracle_pm_f\toracle_lsr_f\toracle_pmr"]
    for b, decoded_pairs, oracle_sums in sweeps:
        report = aggregate(decoded_pairs)
        n = len(instances)
        lines.append(
            f"{b}\t{report.pm.f:.4f}\t{report.lsr.f:.4f}\t{report.pmr:.4f}"
            f"\t{oracle_sums['pm_f'] / n:.4f}\t{oracle_sums['lsr_f'] / n:.4f}"
            f"\t{oracle_sums['pmr'] / n:.4f}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        _write_text(Path(args.out) / "oracle.tsv", text)
    return 0


def cmd_stats(args):
    print("# path\tdocuments\tavg_sentences\tavg_words")
    for path in args.paths:
        corpus = ingest_corpus(path)
        stats = corpus.stats
        if stats.n_documents == 0:
            print(f"warning: {path} contains no usable documents", file=sys.stderr)
        if stats.skipped:
            print(f"warning: skipped {stats.skipped} fragment(s) in {path}",
                  file=sys.stderr)
        print(f"{path}\t{stats.n_documents}\t{stats.avg_sentences:.2f}"
              f"\t{stats.avg_words:.2f}")
    return 0


# ----- argument plumbing -----

def build_parser():
    parser = argparse.ArgumentParser(
        prog="ordernet",
        description="Sentence ordering with a pointer network")
    # Every subcommand takes only the flags it reads, spelled out in full.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int)
    shared.add_argument("--encoder", choices=ENCODER_KINDS)
    shared.add_argument("--checkpoint")
    shared.add_argument("--out")
    beam = argparse.ArgumentParser(add_help=False)
    beam.add_argument("--beam", type=int, metavar="N")
    view = argparse.ArgumentParser(add_help=False)
    view.add_argument("--noise", choices=tuple(_NOISE_ALIASES))
    view.add_argument("--fixed-length", dest="fixed_length", choices=("on", "off"))

    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, *flags, help):
        return sub.add_parser(name, parents=[shared, *flags], allow_abbrev=False, help=help)

    p = add_command("train", beam, view, help="train a model")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--train", help="training corpus")
    p.add_argument("--dev", help="development corpus")
    p.add_argument("--embeddings", help="pretrained embedding text file")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--log", help="also write the epoch log to this file")
    p.set_defaults(fn=cmd_train)

    p = add_command("eval", beam, view, help="evaluate a checkpoint")
    p.add_argument("--test", help="evaluation corpus")
    p.add_argument("--input", help=argparse.SUPPRESS)
    p.add_argument("--self-test", dest="self_test", action="store_true",
                   help="score gold against itself (sanity check)")
    p.add_argument("--jobs", type=int, default=1, help="decoding worker processes")
    p.set_defaults(fn=cmd_eval)

    p = add_command("decode", beam, help="print predicted orders")
    p.add_argument("--input", help="corpus to decode")
    p.add_argument("--test", help=argparse.SUPPRESS)
    p.add_argument("--jobs", type=int, default=1, help="decoding worker processes")
    p.set_defaults(fn=cmd_decode)

    p = add_command("saliency", help="word attribution report")
    p.add_argument("--input", help="corpus to draw the document from")
    p.add_argument("--test", help=argparse.SUPPRESS)
    p.add_argument("--doc", type=int, default=0, help="document index")
    p.set_defaults(fn=cmd_saliency)

    p = add_command("oracle", help="beam-size sweep with oracles")
    p.add_argument("--test", help="evaluation corpus")
    p.add_argument("--input", help=argparse.SUPPRESS)
    p.add_argument("--beams", default="1,2,4,8,16,32,64",
                   help="comma-separated beam sizes")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("stats", help="corpus statistics")
    p.add_argument("paths", nargs="+", help="corpus files")
    p.set_defaults(fn=cmd_stats)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OrdernetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

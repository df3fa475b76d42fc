"""Flat-numpy forward pass of the pointer network, written without Graph.

The benchmark checks the program's decoded orders and gradients against
this independent computation.  It follows the model's definition (see
ordernet.model) but shares no code with it: sigmoids come from tanh, the
LSTM input and recurrent products are separate, and step distributions are
computed as log-softmax.
"""

import numpy as np


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _lstm_step(w, b, x, h, c):
    """Gates are packed as (input, output, forget, candidate)."""
    d = h.shape[0]
    pre = x @ w[:x.shape[0]] + h @ w[x.shape[0]:] + b
    gate_in = _sigmoid(pre[:d])
    gate_out = _sigmoid(pre[d:2 * d])
    gate_forget = _sigmoid(pre[2 * d:3 * d])
    c = gate_forget * c + gate_in * np.tanh(pre[3 * d:])
    return gate_out * np.tanh(c), c


class ReferenceModel:
    """Reads parameter arrays by name; they may be perturbed between calls."""

    def __init__(self, arrays, encoder, filter_lengths, hidden_dim):
        self.arrays = arrays
        self.encoder = encoder
        self.filter_lengths = tuple(filter_lengths)
        self.hidden_dim = hidden_dim

    @classmethod
    def of(cls, model):
        """Snapshot of a training.Model's current parameter values."""
        arrays = {p.name: p.value.copy() for p in model.params.all_params()}
        cfg = model.config
        return cls(arrays, cfg.encoder, cfg.filter_lengths, cfg.hidden_dim)

    def sentence_vector(self, ids):
        a = self.arrays
        rows = a["embeddings"][np.asarray(ids)]
        if self.encoder == "cbow":
            return rows.sum(axis=0) / rows.shape[0]
        if self.encoder == "lstm":
            d = a["word_lstm.b"].shape[0] // 4
            h, c = np.zeros(d), np.zeros(d)
            for x in rows:
                h, c = _lstm_step(a["word_lstm.w"], a["word_lstm.b"], x, h, c)
            return h
        pooled = []
        for width in self.filter_lengths:
            padded = rows
            if rows.shape[0] < width:
                padded = np.vstack([rows, np.zeros((width - rows.shape[0], rows.shape[1]))])
            windows = np.stack([padded[k:k + width].reshape(-1)
                                for k in range(padded.shape[0] - width + 1)])
            features = np.tanh(windows @ a[f"cnn.w{width}"] + a[f"cnn.b{width}"])
            pooled.append(features.max(axis=0))
        return np.concatenate(pooled)

    def log_probs_along(self, sentences, target):
        """Log-distribution of every step while teacher-forcing `target`.

        target ends with the stop index len(sentences) in variable-length
        mode.  Masked slots come out as -inf.
        """
        a = self.arrays
        n, hd = len(sentences), self.hidden_dim
        allow_stop = target[-1] == n
        vectors = [self.sentence_vector(s) for s in sentences]
        h, c = np.zeros(hd), np.zeros(hd)
        keys = []
        for v in vectors:
            h, c = _lstm_step(a["context_lstm.w"], a["context_lstm.b"], v, h, c)
            keys.append(h)
        if allow_stop:
            keys.append(a["stop_key"])
        projected = np.stack(keys) @ a["attn.w"][:hd]

        chosen = np.zeros(len(keys), dtype=bool)
        x = a["start_input"]
        steps = []
        for t in target:
            h, c = _lstm_step(a["decoder_lstm.w"], a["decoder_lstm.b"], x, h, c)
            logits = np.tanh(projected + h @ a["attn.w"][hd:]) @ a["attn.v"]
            top = logits[~chosen].max()
            log_z = top + np.log(np.exp(logits[~chosen] - top).sum())
            steps.append(np.where(chosen, -np.inf, logits - log_z))
            if t < n:
                chosen[t] = True
                x = vectors[t]
        return steps

    def sequence_log_prob(self, sentences, target):
        steps = self.log_probs_along(sentences, target)
        return float(sum(lp[t] for lp, t in zip(steps, target)))

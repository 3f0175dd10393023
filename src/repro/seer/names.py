"""CLI model names -> the :mod:`repro.seer.models` attribute of each
config.  The CLI's ``--model`` choices are the keys; ``seer-forecast``
specs name the values.  Nothing is imported at load time."""

__all__ = ["MODEL_NAMES", "model_config"]

MODEL_NAMES = {
    "gpt3-175b": "GPT3_175B",
    "llama2-70b": "LLAMA2_70B",
    "llama3-70b": "LLAMA3_70B",
    "hunyuan-moe": "HUNYUAN_MOE",
    "deepseek-moe": "DEEPSEEK_MOE",
}


def model_config(attr: str):
    """The ``ModelConfig`` named *attr*, a ``MODEL_NAMES`` value; a spec
    naming anything else fails here, not deep inside the forecaster."""
    if attr not in MODEL_NAMES.values():
        raise ValueError(f"unknown model {attr!r}; choose from "
                         f"{', '.join(sorted(MODEL_NAMES.values()))}")
    from . import models
    return getattr(models, attr)

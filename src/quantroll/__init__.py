"""quantroll: walk-forward ML backtesting for OHLCV candle series."""

__version__ = "0.1.0"

from .candles import (  # noqa: E402
    CandleSeries,
    parse_candles_csv,
    serialize_candles_csv,
    validate_series,
)
from .dataset import (  # noqa: E402
    FeatureFrame,
    LabeledDataset,
    SegmentSplit,
    build_features,
    label,
    log_diff,
    split,
)
from .evaluation import evaluate_segment  # noqa: E402
from .indicators import (  # noqa: E402
    BollingerBands,
    IndicatorConfig,
    IndicatorSeries,
    acc_dist,
    bollinger,
    keltner_width,
    mfi,
    parabolic_sar,
)
from .metrics import (  # noqa: E402
    ClassifierReport,
    RegressorReport,
    classification_metrics,
    equity_trend_r2,
    r_squared,
    regression_errors,
    sharpe,
)
from .models import (  # noqa: E402
    ModelKind,
    ModelSpec,
    TrainedModel,
    cart_best_split,
    default_space,
    fit,
    predict_class,
    predict_value,
)
from .run import RunArtifact, RunConfig, run_experiment  # noqa: E402
from .report import emit_table  # noqa: E402
from .trading import EquityCurve, TradeLedger, pnl_percent, simulate  # noqa: E402
from .tuner import TunerResult, run_study, sample_params  # noqa: E402
from .walkforward import WalkForwardConfig, evaluated_indices, run_walkforward, signal_from_predictions  # noqa: E402

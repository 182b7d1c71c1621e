"""App-level experiment drivers evaluate the app they are given."""

from repro.analysis.experiments import apps
from repro.analysis.experiments.apps import run_table1_gesture


def test_second_seed_evaluates_its_own_app(monkeypatch):
    # Regression: drivers used to memoize evaluators by app name, so a
    # seed-2 driver run after a seed-1 one silently reused the seed-1 app.
    built = []

    class SpyEvaluator(apps.AppEvaluator):
        def __init__(self, app, *args, **kwargs):
            super().__init__(app, *args, **kwargs)
            built.append(app)

    monkeypatch.setattr(apps, "AppEvaluator", SpyEvaluator)
    run_table1_gesture(seed=1)
    run_table1_gesture(seed=2)
    assert [app.stages[0].kernel.seed for app in built][-1:] == [2]

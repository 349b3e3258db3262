"""``repro run`` when the job itself fails."""

import pytest

from repro import cli


def test_a_job_the_faults_defeat_ends_with_a_named_error():
    # The drawn schedule (crash:sa-east-1-w1, shuffle_worker:ap-southeast-2,
    # merger:us-east-1) loses both replicas of an input block.
    with pytest.raises(SystemExit) as exit_info:
        cli.main(
            ["run", "sort", "--scheme", "aggshuffle", "--chaos", "random:3@1"]
        )
    message = str(exit_info.value.code)
    assert message.startswith("job failed: BlockNotFoundError: ")
    assert "'/input/sort#blk7'" in message

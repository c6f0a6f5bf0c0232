"""The scheduler's communication module (Fig. 3) — a transport endpoint.

"The communication module acts as the interface of the system to the
external environment.  A request can be received directly from a user when
the system functions independently or from an agent when the system works
with a higher-level agent-based system.  The task execution results are
sent directly back to the user from where the request originates."

:class:`SchedulerServer` binds a :class:`~repro.scheduling.scheduler.LocalScheduler`
to an (address, port) identity on the transport: REQUEST messages become
local submissions, completions return RESULT messages to the submitter,
and PULL messages are answered with the scheduler's Fig. 5 service record —
allowing a scheduler to *function independently*, without a fronting agent.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import TaskError, TransportError
from repro.net.message import Endpoint, Message, MessageKind
from repro.net.payloads import RequestEnvelope, ServiceInfo, TaskResult
from repro.net.transport import Transport
from repro.scheduling.scheduler import LocalScheduler
from repro.tasks.task import Task

__all__ = ["SchedulerServer"]


class SchedulerServer:
    """Expose a local scheduler directly on the message transport.

    Parameters
    ----------
    scheduler:
        The scheduler to serve.
    transport:
        The grid's message transport.
    endpoint:
        The (address, port) identity to bind (Fig. 5's ``<local>`` tuple).
    """

    def __init__(
        self,
        scheduler: LocalScheduler,
        transport: Transport,
        endpoint: Endpoint,
    ) -> None:
        self._scheduler = scheduler
        self._transport = transport
        self._endpoint = endpoint
        self._reply_to: Dict[int, RequestEnvelope] = {}
        self._rejected = 0
        # Static Fig. 5 fields, built once; only freetime is refreshed.
        self._record = ServiceInfo(
            agent_endpoint=endpoint,
            scheduler_endpoint=endpoint,
            hardware_type=scheduler.platform.name,
            nproc=scheduler.resource.size,
            environments=scheduler.environments,
            freetime=0.0,
        )
        transport.register(endpoint, self._handle_message)
        scheduler.on_result(self._handle_completion)

    # ------------------------------------------------------------------ state

    @property
    def endpoint(self) -> Endpoint:
        """The bound transport identity."""
        return self._endpoint

    @property
    def scheduler(self) -> LocalScheduler:
        """The served scheduler."""
        return self._scheduler

    @property
    def rejected(self) -> int:
        """Requests refused (unsupported environment)."""
        return self._rejected

    def service_info(self) -> ServiceInfo:
        """The scheduler's Fig. 5 record, self-identified (no agent)."""
        self._record = self._record.with_freetime(self._scheduler.freetime())
        return self._record

    # --------------------------------------------------------------- messages

    def _handle_message(self, message: Message) -> None:
        if message.kind is MessageKind.REQUEST:
            envelope = message.payload
            if not isinstance(envelope, RequestEnvelope):
                raise TransportError(
                    f"bad REQUEST payload: {type(envelope).__name__}"
                )
            self._submit(envelope)
        elif message.kind is MessageKind.PULL:
            self._transport.send(
                Message(
                    MessageKind.ADVERTISE,
                    self._endpoint,
                    message.sender,
                    payload=self.service_info(),
                )
            )
        else:
            raise TransportError(
                f"scheduler endpoint cannot handle {message.kind.value!r}"
            )

    def _submit(self, envelope: RequestEnvelope) -> None:
        envelope = envelope.visited(f"scheduler:{self._scheduler.resource.name}")
        try:
            task = self._scheduler.submit(envelope.request)
        except TaskError:
            # Unsupported environment: report failure straight back.
            self._rejected += 1
            self._transport.send(
                Message(
                    MessageKind.RESULT,
                    self._endpoint,
                    envelope.reply_to,
                    payload=TaskResult(
                        request_id=envelope.request_id,
                        application=envelope.request.application.name,
                        success=False,
                        submit_time=envelope.request.submit_time,
                        deadline=envelope.request.deadline,
                        trace=envelope.trace,
                    ),
                )
            )
            return
        self._reply_to[task.task_id] = envelope

    def _handle_completion(self, task: Task) -> None:
        envelope = self._reply_to.pop(task.task_id, None)
        if envelope is None:
            return  # submitted by other means (e.g. a fronting agent)
        assert task.completion_time is not None and task.start_time is not None
        self._transport.send(
            Message(
                MessageKind.RESULT,
                self._endpoint,
                envelope.reply_to,
                payload=TaskResult(
                    request_id=envelope.request_id,
                    application=task.application.name,
                    success=True,
                    resource_name=task.resource_name
                    or self._scheduler.resource.name,
                    submit_time=task.request.submit_time,
                    start_time=task.start_time,
                    completion_time=task.completion_time,
                    deadline=task.deadline,
                    trace=envelope.trace,
                ),
            )
        )
